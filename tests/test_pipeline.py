import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sah.cli
import sah.pipeline
from conftest import (annulus_system, circle_system, disk_system, fixture_path,
                      two_points_system)
from sah.cli import main as cli_main
from sah.condition import kappa_subtuple_max
from sah.errors import ContractViolation, ParseError
from sah.grid import grid_count, grid_points, shell_order
from sah.nerve import cech_nerve
from sah.pipeline import (RunOptions, emit_result, homology_algorithm,
                          parse_system, serialize_result)
from sah.polysys import AffinePoly, AffineSystem, scaled_homogenization


def test_run_options_validation():
    RunOptions()
    RunOptions(mode="fixed", r_override=0.25, epsilon_override=0.15)
    with pytest.raises(ContractViolation):
        RunOptions(mode="fixed")
    with pytest.raises(ContractViolation):
        RunOptions(mode="certified", r_override=0.25)
    with pytest.raises(ContractViolation):
        RunOptions(mode="fixed", r_override=0.25, epsilon_override=0.15,
                   max_iterations=3)
    with pytest.raises(ContractViolation):
        RunOptions(mode="nonsense")


def test_trivial_unconstrained_system():
    sys_ = AffineSystem(2, (), (), ())
    res = homology_algorithm(sys_, RunOptions())
    assert res.certified
    assert res.homology.betti == (1, 0, 0)


def test_an_empty_set_reports_zero_in_degrees_0_to_n():
    # x^2 + 1 = 0 certifies with no member; the empty nerve has no degree,
    # so all n + 1 degrees are padded with 0
    sys_ = AffineSystem(1, (AffinePoly(1, {(2,): 1.0, (0,): 1.0}),), (), (2,))
    res = homology_algorithm(sys_, RunOptions())
    assert res.certified and len(res.covering.points) == 0
    assert res.homology.betti == (0, 0)
    assert res.homology.torsion == ((), ())
    assert emit_result(res)["max_dim"] == 2


def test_two_points_certified_run():
    res = homology_algorithm(two_points_system(), RunOptions())
    assert res.certified
    assert res.homology.betti == (2, 0)
    assert res.homology.torsion == ((), ())
    # dimension bookkeeping: covering ran on S^1, ambient R^2
    assert res.covering.points.shape[1] == 2


def test_runs_compute_no_condition_report(monkeypatch):
    # the report is the `condition` command's; a run reports the covering
    def refuse(*args, **kwargs):
        raise AssertionError("a run computed a condition report")
    monkeypatch.setattr(sah.pipeline, "condition_report", refuse)
    res = homology_algorithm(annulus_system(), RunOptions(
        mode="fixed", r_override=0.25, epsilon_override=0.15))
    assert res.homology.betti == (1, 1, 0)
    res = homology_algorithm(two_points_system(), RunOptions())
    assert res.certified and res.homology.betti == (2, 0)


def test_uncertified_run_makes_no_claim():
    res = homology_algorithm(two_points_system(),
                             RunOptions(max_iterations=2))
    assert not res.certified
    assert res.homology is None
    doc = emit_result(res)
    assert doc["betti"] is None
    assert doc["certified"] is False


def test_parse_two_points_fixture():
    sys_ = parse_system(fixture_path("two_points.json"))
    assert sys_.n == 1
    assert len(sys_.F) == 1 and sys_.G == ()
    assert sys_.F[0].terms == {(2,): 1.0, (0,): -1.0}


def test_parse_strict_flag():
    # the two files differ only in the inequality's "strict" flag
    assert (parse_system(fixture_path("disk_strict.json"))
            == parse_system(fixture_path("disk_closed.json")))


@pytest.mark.parametrize("name,system", [
    ("two_points.json", two_points_system()),
    ("circle.json", circle_system()),
    ("disk_closed.json", disk_system()),
    ("disk_strict.json", disk_system()),
    ("annulus.json", annulus_system()),
], ids=["two_points", "circle", "disk_closed", "disk_strict", "annulus"])
def test_parse_fixture_equals_conftest_system(name, system):
    assert parse_system(fixture_path(name)) == system


def test_parse_error_names_polynomial(tmp_path):
    doc = {"schema": "sah-system/1", "n": 2,
           "equalities": [{"degree": 2,
                           "terms": [{"coeff": "1", "exponents": [2]}]}],
           "inequalities": []}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"equalities\[0\]"):
        parse_system(str(p))


def test_parse_rejects_q_gt_n(tmp_path):
    eq = {"degree": 1, "terms": [{"coeff": "1", "exponents": [1]}]}
    doc = {"schema": "sah-system/1", "n": 1, "equalities": [eq, eq],
           "inequalities": []}
    p = tmp_path / "over.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="q <= n"):
        parse_system(str(p))


def test_parse_rejects_wrong_schema(tmp_path):
    p = tmp_path / "v2.json"
    p.write_text(json.dumps({"schema": "sah-system/2", "n": 1}))
    with pytest.raises(ParseError, match="schema"):
        parse_system(str(p))


def test_parse_rejects_a_degree_below_one_naming_the_polynomial(tmp_path):
    doc = _two_points_doc(degree=0, terms=[{"coeff": "1", "exponents": [0]}])
    p = tmp_path / "degree0.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"equalities\[0\]: field 'degree'"):
        parse_system(str(p))


def _two_points_doc(**equality) -> dict:
    eq = {"degree": 2, "terms": [{"coeff": "1", "exponents": [2]},
                                 {"coeff": "-1", "exponents": [0]}]}
    return {"schema": "sah-system/1", "n": 1,
            "equalities": [{**eq, **equality}], "inequalities": []}


FIXED = ["compute", "--mode", "fixed", "--r", "0.25", "--epsilon"]
# raw text: json.dumps of this nesting would recurse too deep itself
NESTED = "[" * 100000 + "]" * 100000
# raw text: a coefficient written as a JSON integer of 5,001 digits, more
# than Python converts (json.dumps of that int would refuse it itself)
LONG_INTEGER = json.dumps(_two_points_doc()).replace(
    '"coeff": "1"', '"coeff": 1' + "0" * 5000, 1)


@pytest.mark.parametrize("doc,argv", [
    ([_two_points_doc()], ["compute"]),
    (_two_points_doc(terms=[{"coeff": "1e400", "exponents": [2]},
                            {"coeff": "-1e-400", "exponents": [0]}]),
     ["compute"]),
    # reading 1e3000000 exactly would take seconds, scaling it minutes
    (_two_points_doc(terms=[{"coeff": "1e3000000", "exponents": [2]},
                            {"coeff": "-1e3000000", "exponents": [0]}]),
     ["compute"]),
    (_two_points_doc(terms=[{"coeff": "1e-3000000", "exponents": [2]},
                            {"coeff": "-1e-3000000", "exponents": [0]}]),
     ["compute"]),
    (_two_points_doc(terms=5), ["compute"]),
    (_two_points_doc(terms=["1"]), ["compute"]),
    (_two_points_doc(degree=[2]), ["compute"]),
    # numbers that int() truncates: x^2.9 - 1 would run as x^2 - 1,
    # n = 1.7 as n = 1 and degree true as degree 1
    (_two_points_doc(terms=[{"coeff": "1", "exponents": [2.9]},
                            {"coeff": "-1", "exponents": [0]}]), ["compute"]),
    ({**_two_points_doc(), "n": 1.7}, ["compute"]),
    (_two_points_doc(degree=True, terms=[{"coeff": "1", "exponents": [1]},
                                         {"coeff": "-1", "exponents": [0]}]),
     ["compute"]),
    ({**_two_points_doc(), "n": [1]}, ["compute"]),
    ({**_two_points_doc(), "equalities": 5}, ["compute"]),
    # "false" is a string, which bool() reads as true
    ({**_two_points_doc(), "inequalities": [
        {"degree": 1, "strict": "false",
         "terms": [{"coeff": "1", "exponents": [1]}]}]}, ["compute"]),
    (_two_points_doc(), FIXED + ["nan"]),
    (_two_points_doc(), FIXED + ["inf"]),
    (_two_points_doc(), ["compute", "--max-iterations", "0"]),
    (_two_points_doc(), ["compute", "--max-iterations", "-3"]),
    (_two_points_doc(), FIXED + ["0.1", "--max-iterations", "3"]),
    (_two_points_doc(), ["compute", "--mode", "fixed", "--r", "1e-320",
                         "--epsilon", "0.1"]),
    (_two_points_doc(), ["condition", "--point", "0,0"]),
    (_two_points_doc(), ["condition", "--point", "nan,1"]),
    (_two_points_doc(), ["condition", "--point", "inf,1"]),
    (json.loads(Path(fixture_path("annulus.json")).read_text()),
     ["condition", "--point", "1,1"]),
    ({**_two_points_doc(), "equalities": [5]}, ["compute"]),
    ({**_two_points_doc(), "equalities": [{"degree": 2}]}, ["compute"]),
    # identically zero: its Weyl norm is 0, so kappa is infinite everywhere
    ({**_two_points_doc(), "inequalities": [{"degree": 1, "terms": []}]},
     ["compute"]),
    ({**_two_points_doc(), "inequalities": [
        {"degree": 1, "terms": [{"coeff": "0", "exponents": [1]}]}]},
     ["compute"]),
    ({**_two_points_doc(), "inequalities": [
        {"degree": 1, "terms": [{"coeff": "1", "exponents": [1]},
                                {"coeff": "-1", "exponents": [1]}]}]},
     ["compute"]),
    # faces of more points than an array index can address
    (json.loads(Path(fixture_path("annulus.json")).read_text()),
     ["compute", "--mode", "fixed", "--r", "1e-10", "--epsilon", "0.1"]),
    (None, ["grid", "--n", "3", "--r", "1e-10"]),
    (NESTED, ["compute"]),
    (NESTED, ["condition", "--point", "1,1"]),
    (LONG_INTEGER, ["compute"]),
    (_two_points_doc(terms=[{"coeff": "1", "exponents": [-1]}]), ["compute"]),
    (_two_points_doc(terms=[{"coeff": "1", "exponents": [3]}]), ["compute"]),
    # usage errors: argparse alone would print its usage and exit 2
    (None, ["compute"]),
    (_two_points_doc(), ["compute", "--max-iterations", "x"]),
    (_two_points_doc(), ["compute", "--no-such-flag"]),
    (None, []),
], ids=["top-level-array", "coeff-overflow", "exponent-huge",
        "exponent-tiny", "terms-not-a-list",
        "term-not-an-object", "degree-not-an-integer", "exponent-float",
        "n-float", "degree-bool", "n-not-an-integer", "equalities-not-a-list",
        "strict-string", "epsilon-nan", "epsilon-inf",
        "max-iterations-zero", "max-iterations-negative",
        "fixed-max-iterations", "fixed-r-subnormal", "point-zero",
        "point-nan", "point-inf", "point-length", "equality-not-an-object",
        "terms-missing", "zero-polynomial-empty", "zero-polynomial-0x",
        "zero-polynomial-cancelling", "fixed-face-too-large",
        "grid-face-too-large", "nested-compute", "nested-condition",
        "integer-too-long", "exponent-negative",
        "term-above-degree", "input-missing", "max-iterations-not-an-integer",
        "flag-unknown", "command-missing"])
@pytest.mark.filterwarnings("error")
def test_cli_malformed_input_is_an_error_not_a_traceback(doc, argv, tmp_path,
                                                          capsys):
    if doc is not None:
        p = tmp_path / "bad.json"
        p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = argv[:1] + ["--input", str(p)] + argv[1:]
    start = time.perf_counter()
    assert cli_main(argv) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # one short line, e.g. no coefficient printed as a 400-digit fraction
    assert len(err) < 200 and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err
    if argv[:1] == ["condition"] and "invalid document" not in err:
        assert argv[-1] in err


@pytest.mark.parametrize("message,err", [
    ("Unable to allocate 238. GiB for an array",
     "error: out of memory: Unable to allocate 238. GiB for an array\n"),
    ("", "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_cli_out_of_memory_is_an_error_not_a_traceback(monkeypatch, capsys,
                                                       message, err):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(sah.cli, "homology_algorithm", exhausted)
    assert cli_main(["compute", "--input",
                     fixture_path("two_points.json")]) == 1
    assert capsys.readouterr().err == err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["compute", "--help"])
    assert exc.value.code == 0
    assert "--max-iterations" in capsys.readouterr().out


def test_parse_names_the_digit_limit_of_a_long_integer(tmp_path):
    p = tmp_path / "long.json"
    p.write_text(LONG_INTEGER)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError, match=rf"^invalid document: a JSON integer "
                       rf"of 5001 digits exceeds the limit of {limit} digits$"):
        parse_system(str(p))


def test_emit_result_document_fields():
    res = homology_algorithm(two_points_system(), RunOptions())
    doc = emit_result(res)
    for key in ("certified", "betti", "torsion", "r", "epsilon", "k_star",
                "grid_size", "num_points", "iterations", "max_dim",
                "wall_time_ms"):
        assert key in doc
    assert isinstance(doc["grid_size"], str)
    assert doc["wall_time_ms"] is None
    assert doc["betti"] == [2, 0]
    # certified postconditions recomputable from the document
    d = 2
    assert 71.0 * d ** 2.5 * doc["k_star"] ** 2 * doc["r"] < 1.0
    assert doc["epsilon"] == pytest.approx(5.0 * d * doc["k_star"] * doc["r"])


def test_boundary_ambiguous_is_written_only_when_set():
    res = homology_algorithm(two_points_system(), RunOptions())
    assert not res.boundary_ambiguous
    assert "boundary_ambiguous" not in emit_result(res)
    text = serialize_result(dataclasses.replace(res, boundary_ambiguous=True))
    assert '"boundary_ambiguous": true' in text
    assert json.loads(text)["boundary_ambiguous"] is True


def test_serialized_output_deterministic():
    a = serialize_result(homology_algorithm(two_points_system(), RunOptions()))
    b = serialize_result(homology_algorithm(two_points_system(), RunOptions()))
    assert a == b
    json.loads(a)  # valid document


def test_timing_flag_included():
    res = homology_algorithm(two_points_system(), RunOptions())
    doc = emit_result(res, include_timing=True)
    assert doc["wall_time_ms"] > 0.0


def test_cli_compute_exit_codes(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = cli_main(["compute", "--input", fixture_path("two_points.json"),
                     "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["betti"] == [2, 0]
    # fixed mode is never certified: exit code 2
    code = cli_main(["compute", "--input", fixture_path("two_points.json"),
                     "--mode", "fixed", "--r", "0.125", "--epsilon", "0.3",
                     "--output", str(out)])
    assert code == 2
    # parse failure: exit code 1
    missing = tmp_path / "missing.json"
    assert cli_main(["compute", "--input", str(missing)]) == 1


def test_a_document_without_polynomials_is_the_whole_space(tmp_path):
    doc = tmp_path / "empty.json"
    doc.write_text(json.dumps({"schema": "sah-system/1", "n": 2}))
    assert parse_system(str(doc)) == AffineSystem(2, (), (), ())
    out = tmp_path / "res.json"
    assert cli_main(["compute", "--input", str(doc),
                     "--output", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["certified"]
    assert res["betti"] == [1, 0, 0]


def test_cli_grid_count(capsys):
    assert cli_main(["grid", "--n", "1", "--r", "0.5", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "16"
    # exact even where the points could not be enumerated
    assert cli_main(["grid", "--n", "3", "--r", "1e-10", "--count-only"]) == 0
    assert int(capsys.readouterr().out) == grid_count(3, shell_order(3, 1e-10))


def test_cli_grid_points_parse_back_bit_for_bit(capsys):
    assert cli_main(["grid", "--n", "1", "--r", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    got = np.array([[float(v) for v in line.split()] for line in lines])
    assert got.tobytes() == grid_points(1, 2).tobytes()


def test_cli_grid_at_a_subnormal_radius(capsys):
    # the count is exact; the points would need coordinates beyond 2^53
    argv = ["grid", "--n", "1", "--r", "1e-320"]
    assert cli_main(argv + ["--count-only"]) == 0
    assert int(capsys.readouterr().out) == grid_count(1, shell_order(1, 1e-320))
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2^53" in err
    assert len(err) < 200 and err.count("\n") == 1


def test_cli_condition(capsys):
    code = cli_main(["condition", "--input", fixture_path("two_points.json"),
                     "--point", "1,1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kappa"] >= 1.0
    assert doc["residual_ratio"] == pytest.approx(0.0, abs=1e-12)


def test_parse_decimal_and_fraction_coefficients(tmp_path):
    doc = {"schema": "sah-system/1", "n": 2, "equalities": [],
           "inequalities": [{"degree": 2, "terms": [
               {"coeff": "0.5", "exponents": [2, 0]},
               {"coeff": "-1/4", "exponents": [0, 2]}]}]}
    p = tmp_path / "fractions.json"
    p.write_text(json.dumps(doc))
    assert parse_system(str(p)).G[0].terms == {(2, 0): 0.5, (0, 2): -0.25}


def _assert_scaled_two_points_certify(tmp_path, scale: str) -> None:
    """x^2 - 1 with both coefficients times `scale` runs like two_points."""
    doc = _two_points_doc(terms=[{"coeff": scale, "exponents": [2]},
                                 {"coeff": "-" + scale, "exponents": [0]}])
    p = tmp_path / "scaled.json"
    p.write_text(json.dumps(doc))
    (poly,) = parse_system(str(p)).F
    assert poly.terms[(2,)] == -poly.terms[(0,)] > 0.5
    out, ref = tmp_path / "scaled_res.json", tmp_path / "ref_res.json"
    assert cli_main(["compute", "--input", str(p), "--output", str(out)]) == 0
    assert cli_main(["compute", "--input", fixture_path("two_points.json"),
                     "--output", str(ref)]) == 0
    got, want = json.loads(out.read_text()), json.loads(ref.read_text())
    assert got["certified"] is True
    assert got["betti"] == [2, 0]
    assert got["iterations"] == want["iterations"]


def test_cli_tiny_coefficients_are_rescaled_not_lost(tmp_path):
    # x^2 - 1 scaled by 1e-400: every coefficient underflows a float, but
    # one power-of-two factor for the whole system keeps the zero set
    _assert_scaled_two_points_certify(tmp_path, "1e-400")


def test_cli_huge_coefficients_are_rescaled_not_an_overflow(tmp_path):
    # x^2 - 1 scaled by 1e400: every coefficient overflows a float
    _assert_scaled_two_points_certify(tmp_path, "1e400")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("scale", ["1e200", "1e160", "1e154", "1e-200"])
@pytest.mark.filterwarnings("error")
def test_cli_coefficients_whose_squares_leave_the_float_range_are_rescaled(
        tmp_path, capsys, scale):
    # floats whose squares overflow (1e200, 1e160) or underflow (1e-200),
    # and 1e154, whose square is a float but the sum of two squares in the
    # Weyl norm is not
    _assert_scaled_two_points_certify(tmp_path, scale)
    assert cli_main(["condition", "--input", str(tmp_path / "scaled.json"),
                     "--point", "1,1"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["kappa"] == pytest.approx(1.0)


@pytest.mark.parametrize("terms", [
    # the floats of the two parts of x^2 sum to 0
    [{"coeff": "100000000000000000000", "exponents": [2]},
     {"coeff": "-99999999999999999999", "exponents": [2]},
     {"coeff": "-1", "exponents": [0]}],
    # a pair that cancels sets no scale
    [{"coeff": "1e200", "exponents": [2]},
     {"coeff": "-1e200", "exponents": [2]},
     {"coeff": "1", "exponents": [2]}, {"coeff": "-1", "exponents": [0]}],
], ids=["split-term", "cancelling-pair"])
def test_cli_repeated_exponents_sum_exactly_before_rounding(tmp_path, terms):
    p = tmp_path / "repeated.json"
    p.write_text(json.dumps(_two_points_doc(terms=terms)))
    out, ref = tmp_path / "res.json", tmp_path / "ref.json"
    assert cli_main(["compute", "--input", str(p), "--output", str(out)]) == 0
    assert cli_main(["compute", "--input", fixture_path("two_points.json"),
                     "--output", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


FIXTURE_NAMES = ["two_points.json", "circle.json", "disk_closed.json",
                 "disk_strict.json", "annulus.json"]
BIG = st.fractions(min_value=-10 ** 30, max_value=10 ** 30)


@st.composite
def split_fixtures(draw):
    """A fixture document with every coefficient c written as the two
    terms a and c - a, and a pair +-b on an exponent vector of the
    polynomial's degree or less, all in a drawn order."""
    name = draw(st.sampled_from(FIXTURE_NAMES))
    doc = json.loads(Path(fixture_path(name)).read_text())
    for entry in doc["equalities"] + doc["inequalities"]:
        terms = []
        for t in entry["terms"]:
            a = draw(BIG)
            terms += [{"coeff": str(a), "exponents": t["exponents"]},
                      {"coeff": str(Fraction(t["coeff"]) - a),
                       "exponents": t["exponents"]}]
        degree, n = entry["degree"], doc["n"]
        exps = draw(st.lists(st.integers(0, degree), min_size=n, max_size=n)
                    .filter(lambda e: sum(e) <= degree))
        b = draw(BIG)
        terms += [{"coeff": str(b), "exponents": exps},
                  {"coeff": str(-b), "exponents": exps}]
        entry["terms"] = draw(st.permutations(terms))
    return name, doc


@settings(deadline=None)
@given(split_fixtures())
def test_parse_sums_repeated_exponents_exactly(tmp_path_factory, case):
    name, doc = case
    p = tmp_path_factory.mktemp("split") / name
    p.write_text(json.dumps(doc))
    assert parse_system(str(p)) == parse_system(fixture_path(name))


def test_parse_normal_coefficients_are_not_rescaled(tmp_path):
    doc = _two_points_doc(terms=[{"coeff": "3e-300", "exponents": [2]},
                                 {"coeff": "-1/3", "exponents": [0]}])
    p = tmp_path / "normal.json"
    p.write_text(json.dumps(doc))
    assert parse_system(str(p)).F[0].terms == {(2,): 3e-300, (0,): -1 / 3}


def test_parse_rejects_a_coefficient_range_wider_than_floats(tmp_path):
    doc = _two_points_doc(terms=[{"coeff": "1", "exponents": [2]},
                                 {"coeff": "-1e-400", "exponents": [0]}])
    p = tmp_path / "range.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"equalities\[0\]"):
        parse_system(str(p))


def test_cli_condition_reports_the_subtuple_maximum(capsys):
    # the annulus has no equalities, so kappa of F alone is 1 everywhere;
    # the covering certifies with the maximum over inequality subtuples
    assert cli_main(["condition", "--input", fixture_path("annulus.json"),
                     "--point", "1,1,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kappa"] == 1.0
    assert doc["mu_norm"] == "inf"
    sys_ = scaled_homogenization(parse_system(fixture_path("annulus.json")))
    want, sub = kappa_subtuple_max(sys_, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    assert doc["kappa_subtuple_max"] == want
    assert doc["subtuple"] == list(sub)
    assert 1.0 < doc["kappa_subtuple_max"] < math.inf
    # the whole document, byte for byte, at a point off the two zeros
    assert cli_main(["condition", "--input", fixture_path("two_points.json"),
                     "--point", "0,1"]) == 0
    want = {"dist_to_illposed_lower": 1.0, "kappa": 1.4142135623730951,
            "kappa_subtuple_max": 2.0, "mu_norm": 1.0000000000000002,
            "mu_proj": "inf", "reach_lower": 0.03571428571428571,
            "residual_ratio": 0.7071067811865475, "subtuple": [0]}
    assert capsys.readouterr().out == json.dumps(want, indent=2,
                                                 sort_keys=True) + "\n"


def test_a_run_reports_degrees_0_to_n_from_a_nerve_of_dimension_n_plus_1(
        monkeypatch):
    """The annulus (n = 2) reports degrees 0..2 and max_dim 3, and its
    nerve stops at dimension n + 1 = 3."""
    nerves = []

    def recording(*args, **kwargs):
        nerves.append(cech_nerve(*args, **kwargs))
        return nerves[-1]

    monkeypatch.setattr(sah.pipeline, "cech_nerve", recording)
    res = homology_algorithm(
        parse_system(fixture_path("annulus.json")),
        RunOptions(mode="fixed", r_override=0.25, epsilon_override=0.15))
    assert [nerve.dimension for nerve in nerves] == [3]
    expected = {
        "audit_hypothesis": 876.6333333333336,
        "betti": [1, 1, 0],
        "certified": False,
        "epsilon": 0.15,
        "grid_size": "866",
        "iterations": 0,
        "k_star": 8.211780156174015,
        "max_dim": 3,
        "num_points": 532,
        "r": 0.25,
        "torsion": [[], [], []],
        "wall_time_ms": None,
    }
    assert serialize_result(res) == json.dumps(expected, indent=2,
                                               sort_keys=True) + "\n"


def test_importing_the_cli_loads_neither_scipy_nor_shubsmale():
    # each would add its import time to every command's start-up
    src = os.path.dirname(os.path.dirname(sah.pipeline.__file__))
    code = ("import sys, sah, sah.cli; print(sorted(m for m in "
            "('scipy', 'sah.shubsmale') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_importing_the_package_loads_no_module_and_hides_none():
    # names are imported from their modules; the package re-exports none,
    # so `sah.covering` is the module and not the function of that name
    src = os.path.dirname(os.path.dirname(sah.pipeline.__file__))
    code = ("import inspect, sys, sah; "
            "print([m for m in sys.modules if m.startswith('sah.')]); "
            "import sah.covering; print(inspect.ismodule(sah.covering))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["[]", "True"]


def test_cli_stops_quietly_when_the_reader_closes_the_pipe():
    # as in `sah grid --n 2 --r 0.05 | head -2`: no error line and no
    # traceback at interpreter exit
    src = os.path.dirname(os.path.dirname(sah.pipeline.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sah.cli", "grid", "--n", "2", "--r", "0.05"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    assert len(proc.stdout.readline().split()) == 3
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""

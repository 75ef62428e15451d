import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import disk_system, fixture_path, two_points_system
from sah.cli import main as cli_main
from sah.condition import kappa_subtuple_max
from sah.errors import ContractViolation, ParseError
from sah.pipeline import (RunOptions, emit_result, homology_algorithm,
                          normalize_strictness, parse_system,
                          serialize_result, system_to_document)
from sah.polysys import (AffinePoly, AffineSystem, DegreePattern,
                         scaled_homogenization)


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


def test_normalize_strictness():
    sys_ = disk_system(strict=True)
    out = normalize_strictness(sys_)
    assert out.strict == (False,)
    assert out.G == sys_.G
    assert normalize_strictness(out) == out


def test_trivial_unconstrained_system():
    sys_ = AffineSystem(2, (), (), (), DegreePattern((), 0, 0))
    res = homology_algorithm(sys_, RunOptions())
    assert res.certified
    assert res.homology.betti == (1, 0, 0)


def test_two_points_certified_run():
    res = homology_algorithm(two_points_system(), RunOptions())
    assert res.certified
    assert res.homology.betti == (2, 0)
    assert res.homology.torsion == ((), ())
    # dimension bookkeeping: covering ran on S^1, ambient R^2
    assert res.covering.points.shape[1] == 2


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
    assert sys_.pattern.q == 1 and sys_.pattern.s == 0
    assert sys_.F[0].terms == {(2,): 1.0, (0,): -1.0}


def test_parse_strict_flag():
    sys_ = parse_system(fixture_path("disk_strict.json"))
    assert sys_.strict == (True,)
    closed = parse_system(fixture_path("disk_closed.json"))
    assert closed.strict == (False,)
    assert closed.G[0].terms == sys_.G[0].terms


def test_parse_round_trip(tmp_path):
    for name in ("two_points.json", "circle.json", "disk_closed.json",
                 "annulus.json"):
        sys_ = parse_system(fixture_path(name))
        doc = system_to_document(sys_)
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        again = parse_system(str(p))
        assert again == sys_


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


def _two_points_doc(**equality) -> dict:
    eq = {"degree": 2, "terms": [{"coeff": "1", "exponents": [2]},
                                 {"coeff": "-1", "exponents": [0]}]}
    return {"schema": "sah-system/1", "n": 1,
            "equalities": [{**eq, **equality}], "inequalities": []}


FIXED = ["compute", "--mode", "fixed", "--r", "0.25", "--epsilon"]


@pytest.mark.parametrize("doc,argv", [
    ([_two_points_doc()], ["compute"]),
    (_two_points_doc(terms=[{"coeff": "1e400", "exponents": [2]},
                            {"coeff": "-1e-400", "exponents": [0]}]),
     ["compute"]),
    (_two_points_doc(terms=5), ["compute"]),
    (_two_points_doc(terms=["1"]), ["compute"]),
    (_two_points_doc(degree=[2]), ["compute"]),
    ({**_two_points_doc(), "n": [1]}, ["compute"]),
    ({**_two_points_doc(), "equalities": 5}, ["compute"]),
    (_two_points_doc(), FIXED + ["nan"]),
    (_two_points_doc(), FIXED + ["inf"]),
    (_two_points_doc(), ["compute", "--max-iterations", "0"]),
    (_two_points_doc(), ["compute", "--max-iterations", "-3"]),
    (_two_points_doc(), FIXED + ["0.1", "--max-iterations", "3"]),
    (_two_points_doc(), ["condition", "--point", "0,0"]),
    (_two_points_doc(), ["condition", "--point", "nan,1"]),
    (_two_points_doc(), ["condition", "--point", "inf,1"]),
], ids=["top-level-array", "coeff-overflow", "terms-not-a-list",
        "term-not-an-object", "degree-not-an-integer", "n-not-an-integer",
        "equalities-not-a-list", "epsilon-nan", "epsilon-inf",
        "max-iterations-zero", "max-iterations-negative",
        "fixed-max-iterations", "point-zero",
        "point-nan", "point-inf"])
@pytest.mark.filterwarnings("error")
def test_cli_malformed_input_is_an_error_not_a_traceback(doc, argv, tmp_path,
                                                          capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert cli_main(argv[:1] + ["--input", str(p)] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # one short line, e.g. no coefficient printed as a 400-digit fraction
    assert len(err) < 200 and err.count("\n") == 1
    if argv[0] == "condition":
        assert argv[-1] in err


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


def test_cli_grid_count(capsys):
    assert cli_main(["grid", "--n", "1", "--r", "0.5", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "16"


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
    assert doc["subtuple"] == list(sub.indices)
    assert 1.0 < doc["kappa_subtuple_max"] < math.inf

"""End-to-end homology computation and the file formats.

The parser reads strict inequalities as their closures; the pipeline lifts
the affine system to the sphere with the scaled homogenization, runs the
covering stage, builds the nerve of the resulting ball union and computes
its integer homology.  Homology is only claimed when the covering stage
certifies; fixed-radius runs report an audit value instead.
"""

from __future__ import annotations

import json
import math
import re
import sys as _sys
import time
from dataclasses import asdict, dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .condition import condition_report, kappa_subtuple_max
# approx_member_mask is uncalled here; perfbench/layers.py wraps this name
from .covering import (CoveringResult, approx_member_mask, covering,  # noqa: F401
                       covering_fixed, DEFAULT_MAX_ITERATIONS)
from .errors import ContractViolation, ParseError
from .homology import HomologyGroups, homology_of_complex
from .nerve import cech_nerve
from .polysys import AffinePoly, AffineSystem, scaled_homogenization

SCHEMA_INPUT = "sah-system/1"


@dataclass(frozen=True)
class RunOptions:
    """User-facing knobs of a pipeline run."""

    mode: str = "certified"
    r_override: float | None = None
    epsilon_override: float | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if self.mode not in ("certified", "fixed"):
            raise ContractViolation("mode must be 'certified' or 'fixed'")
        has_r = self.r_override is not None
        has_eps = self.epsilon_override is not None
        if self.mode == "fixed" and not (has_r and has_eps):
            raise ContractViolation("fixed mode requires both r and epsilon")
        if self.mode == "certified" and (has_r or has_eps):
            raise ContractViolation("certified mode forbids r and epsilon overrides")
        if self.mode == "fixed" and self.max_iterations is not None:
            raise ContractViolation("fixed mode runs one pass and forbids max_iterations")


@dataclass(frozen=True)
class RunResult:
    """Everything a run produced; homology is None when nothing is claimed."""

    homology: HomologyGroups | None
    covering: CoveringResult
    max_dim: int
    boundary_ambiguous: bool
    wall_time_ms: float

    @property
    def certified(self) -> bool:
        return self.covering.certified


def homology_algorithm(sys: AffineSystem, opts: RunOptions) -> RunResult:
    """Run the full pipeline on an affine basic semialgebraic system.

    Homology is reported in degrees 0..n.  The covering points lie in
    R^{n+1}, and the union of closed balls around them is compact there,
    so its H_k vanishes for k >= n + 1 (Alexander duality); by the nerve
    theorem the nerve is homotopy equivalent to that union, so it is built
    only up to dimension n + 1, the points' ambient dimension.
    """
    t0 = time.perf_counter()
    ambiguous = False
    if not sys.F and not sys.G:
        # the set is all of R^n, one contractible piece
        cov = CoveringResult(points=np.zeros((0, sys.n + 1)), epsilon=0.0,
                             r_final=1.0, k_star=1.0, iterations=0,
                             certified=True, grid_size=0)
        homology = HomologyGroups((1,) + (0,) * sys.n, ((),) * (sys.n + 1))
    else:
        hsys = scaled_homogenization(sys)
        if opts.mode == "certified":
            cov = covering(hsys, max_iterations=(
                DEFAULT_MAX_ITERATIONS if opts.max_iterations is None
                else opts.max_iterations))
        else:
            cov = covering_fixed(hsys, opts.r_override, opts.epsilon_override)
        homology = None
        if cov.certified or opts.mode == "fixed":
            nerve = cech_nerve(cov.points, cov.epsilon)
            ambiguous = nerve.boundary_ambiguous
            groups = homology_of_complex(nerve, max_degree=sys.n)
            pad = sys.n + 1 - len(groups.betti)
            homology = HomologyGroups(groups.betti + (0,) * pad,
                                      groups.torsion + ((),) * pad)
    return RunResult(
        homology=homology,
        covering=cov,
        max_dim=sys.n + 1,
        boundary_ambiguous=ambiguous,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# File formats

# Smallest positive normal float, 2^-1022, and the largest float.
_NORMAL_MIN = Fraction(1, 2 ** 1022)
_FLOAT_MAX = Fraction(np.finfo(float).max)
# Room left at both ends of the float range for the square of the largest
# coefficient; see `_common_scale`.
_SQUARE_MARGIN = 2 ** 64
# Fraction("1e3000000") builds 10^3000000, and the gcds of the scaling then
# run for minutes.  A larger decimal exponent than the digits Python allows
# an int is refused first: "1e5000" is the number "1" + 5000 zeros, which
# that limit already refuses.
_MAX_EXPONENT = _sys.int_info.default_max_str_digits
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def _json_integer(text: str) -> int:
    """A JSON integer; beyond Python's digit limit, a document error."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"invalid document: a JSON integer of "
                         f"{len(text.lstrip('-'))} digits exceeds the limit "
                         f"of {_sys.get_int_max_str_digits()} digits") from None


def _is_integer(value) -> bool:
    """A JSON integer: not a float such as 2.9 or 2.0, and not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_poly(entry: dict, n: int, where: str) -> tuple[dict, int]:
    """Nonzero exact coefficients by exponents, repeats summed; the degree."""
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: polynomial entry must be an object")
    try:
        degree = entry["degree"]
        raw_terms = entry["terms"]
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from None
    if not _is_integer(degree) or degree < 1:
        raise ParseError(f"{where}: field 'degree' must be a positive integer")
    if not isinstance(entry.get("strict", False), bool):
        raise ParseError(f"{where}: field 'strict' must be a boolean")
    if not isinstance(raw_terms, list):
        raise ParseError(f"{where}: field 'terms' must be a list")
    terms = {}
    for t in raw_terms:
        try:
            text = str(t["coeff"])
            exponent = _EXPONENT.search(text)
            if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
                raise ValueError(f"decimal exponent beyond +-{_MAX_EXPONENT}")
            coeff = Fraction(text)
            exps = tuple(t["exponents"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad term ({exc})") from None
        if not all(_is_integer(e) for e in exps):
            raise ParseError(f"{where}: field 'exponents' must hold integers")
        if len(exps) != n:
            raise ParseError(
                f"{where}: exponent vector has length {len(exps)}, expected {n}")
        if any(e < 0 for e in exps):
            raise ParseError(f"{where}: negative exponent")
        if sum(exps) > degree:
            raise ParseError(f"{where}: term degree exceeds declared degree")
        terms[exps] = terms.get(exps, 0) + coeff
    terms = {exps: c for exps, c in terms.items() if c}
    if not terms:
        # its Weyl norm is 0, so kappa is infinite at every point
        raise ParseError(f"{where}: polynomial is identically zero")
    return terms, degree


def _common_scale(coeffs: list[Fraction]) -> Fraction:
    """One power of two by which to multiply every coefficient of a system.

    The program squares coefficients: the Weyl norms sum c^2 over the
    terms, the scaled homogenization appends the system's norm as a
    coefficient, and residuals and Jacobian rows are norms of values
    bounded by these.  With B the largest |c| and K the number of terms,
    each of those squares and sums is at most 2 D K B^2, and each Weyl
    norm squared is at least B^2 / multinomial(D, a) >= B^2 / (n+1)^D.
    So the scale is 1 only when every coefficient is a normal float and
    B^2 lies in [2^64 * 2^-1022, FLOAT_MAX / 2^64]: any system with 2 D K
    and (n+1)^D below 2^64, which is every system that fits in memory at
    a degree that runs, then neither overflows nor underflows.
    (1e160 x^2 - 1e160 has finite coefficients whose squares overflow;
    1e-200 x^2 - 1e-200 has normal ones whose squares underflow to a zero
    norm.)  Otherwise the scale is 2^-e with 2^(e-1) < B < 2^(e+1), which
    puts B in (1/2, 2).  A positive factor on every polynomial keeps the
    zero set and the sign of every inequality, so the solution set does
    not change.  No scaled coefficient overflows a float: at scale 1
    every |c| <= B < 2^480, and otherwise every |c * scale| < 2.
    """
    if not coeffs:
        return Fraction(1)
    mags = [abs(c) for c in coeffs]
    top = max(mags)
    if (_NORMAL_MIN <= min(mags)
            and _NORMAL_MIN * _SQUARE_MARGIN <= top * top
            <= _FLOAT_MAX / _SQUARE_MARGIN):
        return Fraction(1)
    return Fraction(2) ** (top.denominator.bit_length()
                           - top.numerator.bit_length())


def _float_poly(terms: dict, n: int, scale: Fraction, where: str) -> AffinePoly:
    floats = {}
    for exps, c in terms.items():
        floats[exps] = float(c * scale)
        if not floats[exps]:
            # Decimal, unlike float, holds any exponent: print 1e-400 short
            short = format(Decimal(c.numerator) / c.denominator, ".6g")
            raise ParseError(f"{where}: coefficient {short} is too small "
                             "against the largest one of the system for a "
                             "float")
    return AffinePoly(n, floats)


def _list_field(doc: dict, key: str, where: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{where}: field '{key}' must be a list")
    return value


def parse_system(path: str) -> AffineSystem:
    """Read an affine system from a schema 'sah-system/1' document; an
    inequality's boolean 'strict' flag is dropped (see `AffineSystem`)."""
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_int=_json_integer)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"invalid document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("schema") != SCHEMA_INPUT:
        raise ParseError(f"schema field must be '{SCHEMA_INPUT}'")
    n = doc.get("n")
    if not _is_integer(n) or n < 1:
        raise ParseError("field 'n' must be a positive integer")
    raw, degrees = [], []
    for key in ("equalities", "inequalities"):
        for i, entry in enumerate(_list_field(doc, key, "document")):
            terms, d = _parse_poly(entry, n, f"{key}[{i}]")
            raw.append((f"{key}[{i}]", terms))
            degrees.append(d)
    scale = _common_scale([c for _, terms in raw for c in terms.values()])
    polys = [_float_poly(terms, n, scale, where) for where, terms in raw]
    q = len(doc.get("equalities", []))
    if q > n:
        raise ParseError(
            f"q = {q} equalities exceed n = {n}; the algorithm requires q <= n")
    return AffineSystem(n, tuple(polys[:q]), tuple(polys[q:]), tuple(degrees))


def _num(x: float):
    """Floats become JSON numbers; infinities become the string 'inf'."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def emit_result(result: RunResult, include_timing: bool = False) -> dict:
    """Result document; timing is omitted by default so outputs are
    reproducible byte for byte."""
    cov = result.covering
    doc = {
        "certified": cov.certified,
        "betti": list(result.homology.betti) if result.homology else None,
        "torsion": ([list(t) for t in result.homology.torsion]
                    if result.homology else None),
        "r": _num(cov.r_final),
        "epsilon": _num(cov.epsilon),
        "k_star": _num(cov.k_star),
        "grid_size": str(cov.grid_size),
        "num_points": int(len(cov.points)),
        "iterations": cov.iterations,
        "max_dim": result.max_dim,
        "wall_time_ms": result.wall_time_ms if include_timing else None,
    }
    if cov.audit_hypothesis is not None:
        doc["audit_hypothesis"] = _num(cov.audit_hypothesis)
    if result.boundary_ambiguous:
        doc["boundary_ambiguous"] = True
    return doc


def serialize_result(result: RunResult, include_timing: bool = False) -> str:
    return json.dumps(emit_result(result, include_timing),
                      indent=2, sort_keys=True) + "\n"


def condition_document(system: AffineSystem, point) -> dict:
    """Condition document of a system at the homogeneous coordinates
    `point` (x0, ..., xn), normalized onto the sphere: the
    `condition_report` of the equalities of the scaled homogenization,
    `kappa_subtuple_max` and the first inequality `subtuple` attaining it."""
    x = np.array(point, dtype=float)
    coords = ",".join(format(v, "g") for v in x)
    if len(x) != system.n + 1:
        raise ContractViolation(
            f"point {coords} needs {system.n + 1} homogeneous coordinates")
    # scaling by the largest |x_i| first keeps the norm from overflowing
    scale = np.abs(x).max()
    if not 0.0 < scale < math.inf:
        raise ContractViolation(f"point {coords} must have finite "
                                "coordinates, not all zero")
    x = x / scale
    x = x / np.linalg.norm(x)
    hsys = scaled_homogenization(system)
    report = condition_report(hsys.F, x, max_degree=hsys.max_degree)
    k_sub, sub = kappa_subtuple_max(hsys, x)
    doc = {k: _num(v) for k, v in asdict(report).items()}
    return {**doc, "kappa_subtuple_max": _num(k_sub), "subtuple": list(sub)}

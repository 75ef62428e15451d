"""Bit-stability of the covering stage and of a certified result document.

`fixtures/covering_golden.json` pins, for each fixed-radius fixture, the
exact k*, audit value, grid size, witness and a SHA-256 of the member
points, plus the full serialized document of the certified two-points run.
For the same coverings it pins the Cech nerve at epsilon 0.15 up to
dimension 3: the simplex count per dimension, a SHA-256 of the simplex
lists and the boundary_ambiguous flag.  The annulus and the closed disk
are also pinned at r = 2^-6, where some 200k grid points pass through the
q = 2 subtuple kernels.  A refactor of the polynomial,
condition or nerve code must reproduce these bit for bit.  The file was written by running this module as a script:

    PYTHONPATH=src python tests/test_covering_golden.py > tests/fixtures/covering_golden.json
"""

import hashlib
import json
import os
import sys

from sah.covering import covering_fixed
from sah.nerve import cech_nerve
from sah.pipeline import (RunOptions, homology_algorithm,
                          normalize_strictness, parse_system,
                          serialize_result)
from sah.polysys import scaled_homogenization

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOLDEN = os.path.join(FIXTURES, "covering_golden.json")
FIXED_NAMES = ("annulus", "circle", "disk_closed", "disk_strict")
FIXED_R = 0.25
FINE_NAMES = ("annulus", "disk_closed")
FINE_R = 2.0 ** -6
FIXED_EPS = 0.15
NERVE_MAX_DIM = 3


def _fixed_covering(name: str, r: float = FIXED_R):
    sys_ = parse_system(os.path.join(FIXTURES, f"{name}.json"))
    hsys = scaled_homogenization(normalize_strictness(sys_))
    return covering_fixed(hsys, r, FIXED_EPS)


def _fixed_snapshot(name: str, r: float = FIXED_R) -> dict:
    cov = _fixed_covering(name, r)
    return {
        "k_star": repr(cov.k_star),
        "audit_hypothesis": repr(cov.audit_hypothesis),
        "grid_size": cov.grid_size,
        "witness_point": [repr(float(v)) for v in cov.witness_point],
        "witness_subtuple": list(cov.witness_subtuple.indices),
        "num_points": len(cov.points),
        "points_sha256": hashlib.sha256(cov.points.tobytes()).hexdigest(),
    }


def _nerve_snapshot(name: str) -> dict:
    nerve = cech_nerve(_fixed_covering(name).points, FIXED_EPS,
                       max_dim=NERVE_MAX_DIM)
    dims = sorted(nerve.simplices)
    listed = json.dumps([[list(s) for s in nerve.simplices[k]] for k in dims])
    return {
        "simplex_counts": {str(k): len(nerve.simplices[k]) for k in dims},
        "simplices_sha256": hashlib.sha256(listed.encode()).hexdigest(),
        "boundary_ambiguous": nerve.boundary_ambiguous,
    }


def _certified_document() -> str:
    sys_ = parse_system(os.path.join(FIXTURES, "two_points.json"))
    return serialize_result(homology_algorithm(sys_, RunOptions()))


def snapshot() -> dict:
    return {"fixed": {name: _fixed_snapshot(name) for name in FIXED_NAMES},
            "fine": {name: _fixed_snapshot(name, FINE_R) for name in FINE_NAMES},
            "nerve": {name: _nerve_snapshot(name) for name in FIXED_NAMES},
            "two_points_certified": _certified_document()}


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_fixed_coverings_are_bit_identical():
    golden = _golden()["fixed"]
    for name in FIXED_NAMES:
        assert _fixed_snapshot(name) == golden[name], name


def test_fine_coverings_are_bit_identical():
    golden = _golden()["fine"]
    for name in FINE_NAMES:
        assert _fixed_snapshot(name, FINE_R) == golden[name], name


def test_fixed_nerves_are_identical():
    golden = _golden()["nerve"]
    for name in FIXED_NAMES:
        assert _nerve_snapshot(name) == golden[name], name


def test_certified_two_points_document_is_byte_identical():
    assert _certified_document() == _golden()["two_points_certified"]


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")

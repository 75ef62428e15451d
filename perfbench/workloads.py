"""Workloads: input generators, run options and the expected results.

Expected Betti numbers come from the construction of each input, not from
a run: the annulus {1 <= x^2 + y^2 <= 4} is homotopic to a circle, and a
cubic with three simple real roots has three points as its zero set.  The
other expected fields are those the pipeline produced on these inputs when
the benchmark was defined; a change that moves them changes the
algorithm's output and fails the check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

SCHEMA = "sah-system/1"

# The seed moves the middle root of the cubic by j / 1024 with |j| <= 16,
# i.e. within [15/64, 17/64].  Over that band k* stays in (7.98, 8.85),
# inside the window (7.69, 10.88) where the certificate first holds at
# r = 2^-17, and the final cover keeps 17 points.
CUBIC_ROOT = Fraction(1, 4)
CUBIC_STEP = Fraction(1, 1024)
CUBIC_BAND = 16


def _term(coeff, exponents) -> dict:
    return {"coeff": str(coeff), "exponents": list(exponents)}


def annulus_document(seed: int) -> dict:
    """{1 <= x^2 + y^2 <= 4} as two inequalities; the seed is not used,
    because any change of the input moves the point counts checked."""
    del seed
    return {
        "schema": SCHEMA,
        "n": 2,
        "equalities": [],
        "inequalities": [
            {"degree": 2, "strict": False,
             "terms": [_term(1, (2, 0)), _term(1, (0, 2)), _term(-1, (0, 0))]},
            {"degree": 2, "strict": False,
             "terms": [_term(4, (0, 0)), _term(-1, (2, 0)), _term(-1, (0, 2))]},
        ],
    }


def cubic_middle_root(seed: int) -> Fraction:
    j = random.Random(seed).randint(-CUBIC_BAND, CUBIC_BAND)
    return CUBIC_ROOT + j * CUBIC_STEP


def cubic_document(seed: int) -> dict:
    """(x + 1)(x - c)(x - 1) = x^3 - c x^2 - x + c, c from the seed."""
    c = cubic_middle_root(seed)
    return {
        "schema": SCHEMA,
        "n": 1,
        "equalities": [
            {"degree": 3,
             "terms": [_term(1, (3,)), _term(-c, (2,)), _term(-1, (1,)),
                       _term(c, (0,))]},
        ],
        "inequalities": [],
    }


def two_points_document(seed: int) -> dict:
    """x^2 - 1 = 0; certifies in well under a second."""
    del seed
    return {
        "schema": SCHEMA,
        "n": 1,
        "equalities": [
            {"degree": 2, "terms": [_term(1, (2,)), _term(-1, (0,))]},
        ],
        "inequalities": [],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    document: object                 # seed -> sah-system/1 document
    options: dict                    # keyword arguments of RunOptions
    exit_code: int                   # what `sah compute` would return
    expected: dict = field(default_factory=dict)   # result document fields

    def write_input(self, path: str, seed: int) -> None:
        with open(path, "w") as fh:
            json.dump(self.document(seed), fh, indent=1)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fixed-annulus",
            document=annulus_document,
            options={"mode": "fixed", "r_override": 0.25,
                     "epsilon_override": 0.15},
            exit_code=2,
            expected={"certified": False, "betti": [1, 1, 0],
                      "torsion": [[], [], []], "iterations": 0,
                      "num_points": 532, "r": 0.25, "epsilon": 0.15},
        ),
        Workload(
            name="certified-cubic",
            document=cubic_document,
            options={"mode": "certified"},
            exit_code=0,
            expected={"certified": True, "betti": [3, 0],
                      "torsion": [[], []], "iterations": 17,
                      "num_points": 17, "r": 2.0 ** -17},
        ),
        Workload(
            name="budget-annulus",
            document=annulus_document,
            options={"mode": "certified", "max_iterations": 6},
            exit_code=2,
            expected={"certified": False, "betti": None, "torsion": None,
                      "iterations": 6, "num_points": 39520,
                      "r": 2.0 ** -6},
        ),
        # Certified two_points.  Not a benchmark workload: the smoke test
        # runs it because it passes through every layer in 0.2 s.
        Workload(
            name="tiny",
            document=two_points_document,
            options={"mode": "certified"},
            exit_code=0,
            expected={"certified": True, "betti": [2, 0],
                      "torsion": [[], []], "iterations": 12},
        ),
    )
}


def check_result(workload: Workload, text: str, exit_code: int) -> str | None:
    """None if the run's document and exit code are right, else why not."""
    if exit_code != workload.exit_code:
        return f"exit code {exit_code}, expected {workload.exit_code}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"result document is not JSON ({exc})"
    for key, want in workload.expected.items():
        if doc.get(key) != want:
            return f"{key} = {doc.get(key)!r}, expected {want!r}"
    return None

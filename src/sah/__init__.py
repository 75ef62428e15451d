"""Homology of basic semialgebraic sets through condition numbers.

The pipeline covers the solution set on the sphere by balls around grid
points that nearly satisfy the system, sizes the balls with a condition
number, and reads off Betti numbers and torsion from the nerve of the
ball union.
"""

from .condition import ConditionReport, condition_report, kappa, mu_norm, mu_proj
from .covering import CoveringResult, covering, covering_fixed
from .errors import ContractViolation, ParseError, RankDeficient
from .homology import HomologyGroups, homology_of_complex, smith_normal_form
from .nerve import SimplicialComplex, cech_nerve, min_enclosing_ball
from .pipeline import (RunOptions, RunResult, homology_algorithm,
                       parse_system, serialize_result)
from .polysys import (AffinePoly, AffineSystem, HomoPoly, HomoSystem,
                      scaled_homogenization, weyl_norm)

__all__ = [
    "AffinePoly", "AffineSystem", "ConditionReport", "ContractViolation",
    "CoveringResult", "HomoPoly", "HomoSystem", "HomologyGroups",
    "ParseError", "RankDeficient", "RunOptions", "RunResult",
    "SimplicialComplex", "cech_nerve", "condition_report", "covering",
    "covering_fixed", "homology_algorithm", "homology_of_complex", "kappa",
    "min_enclosing_ball", "mu_norm", "mu_proj", "parse_system",
    "scaled_homogenization", "serialize_result", "smith_normal_form",
    "weyl_norm",
]

__version__ = "0.1.0"

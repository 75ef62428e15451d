"""Small linear-algebra helpers with a single, centralized rank tolerance."""

from __future__ import annotations

import numpy as np

# A matrix is treated as rank-deficient when its smallest relevant singular
# value falls below RANK_RTOL times the largest one.  Every surjectivity
# decision in the package goes through this constant.
RANK_RTOL = 1e-10


def is_surjective(a: np.ndarray) -> bool:
    """True when the rows of ``a`` are numerically independent."""
    m, n = a.shape
    if m == 0:
        return True
    if m > n:
        return False
    s = np.linalg.svd(a, compute_uv=False)
    return s[0] > 0.0 and s[m - 1] >= RANK_RTOL * s[0]


def pseudo_inverse(a: np.ndarray) -> np.ndarray | None:
    """Moore-Penrose inverse of a surjective matrix, or None when rank-deficient."""
    if not is_surjective(a):
        return None
    # a @ a.T is invertible for surjective a; this form keeps the kernel exact.
    return a.T @ np.linalg.inv(a @ a.T)

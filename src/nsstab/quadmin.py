"""Pseudoinverse of the symmetric PSD Gramians of the interval problems.

Every minimal-norm control of the package solves its equality constraint
through the Gramian (normal-equations) route, x = A^T (A A^T)^+ y, with
this eigen-based pseudoinverse of the Gramian.
The generic equality-constrained solver that cross-checks those controls,
with its KKT residual and its null-space route, is a test oracle
(tests/oracles.py).
"""

import numpy as np

DEFAULT_PINV_RTOL = 1e-10


def pinv_psd(G: np.ndarray, rtol: float = DEFAULT_PINV_RTOL):
    """Eigen-based pseudoinverse of a symmetric PSD matrix.

    Returns (pinv, rank); eigenvalues below rtol * max are treated as zero.
    """
    if G.size == 0:
        return G.copy(), 0
    w, U = np.linalg.eigh(0.5 * (G + G.T))
    cut = rtol * max(w.max(), 0.0)
    keep = w > cut
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    return (U * inv_w) @ U.T, int(keep.sum())

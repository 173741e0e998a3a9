"""Dense null-space oracle for CTMC stationary distributions.

The package solves ``pi @ Q = 0`` on a pinned, reduced sparse system
(:mod:`repro.markov.ctmc`).  This oracle takes the plain dense route: the
null space of ``Q^T`` from an SVD.  A chain with one closed communicating
class has a one-dimensional null space whose normalized basis vector is
the stationary law, zero on every transient state.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp


def stationary_nullspace(Q) -> np.ndarray:
    """Normalized stationary vector of the generator ``Q`` (dense SVD).

    Raises ``ValueError`` when the null space of ``Q^T`` is not
    one-dimensional (several closed classes).
    """
    Q = Q.toarray() if sp.issparse(Q) else np.asarray(Q, dtype=float)
    basis = scipy.linalg.null_space(Q.T)
    if basis.shape[1] != 1:
        raise ValueError(f"null space of Q^T has dimension {basis.shape[1]}")
    v = basis[:, 0]
    v = v / v.sum()
    v[np.abs(v) < 1e-15] = 0.0
    return v

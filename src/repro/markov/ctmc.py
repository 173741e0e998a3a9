"""Steady-state solution of continuous-time Markov chains.

Solves ``pi @ Q = 0`` with ``pi @ 1 = 1`` for sparse generators.  Both
assembled-matrix methods solve the same reduced system: states outside the
chain's unique closed communicating class get ``pi = 0``, and one state of
the class is pinned to ``pi_k = 1``, which leaves a nonsingular M-matrix
system over the rest of the class.  The direct method factorizes it
without pivoting, pinning a heavier state when the first pin holds too
little mass to factor stably; the iterative method (GMRES + ILU) covers
state spaces too large for a sparse LU — the regime where the paper's
bounds are the only practical analytic option.  Either way ``pi`` is
normalized last.

``Q`` may also be a matrix-free :class:`scipy.sparse.linalg.LinearOperator`
exposing ``matvec``/``rmatvec`` (e.g. the Kronecker generator of
:mod:`repro.markov.kronop`): the ``"operator"`` method solves the
rank-one-corrected singular system with preconditioned BiCGSTAB without
ever assembling ``Q`` — the regime past the CTMC *storage* wall where even
the matrix itself is prohibitive.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from repro import obs
from repro.utils.errors import IterativeSolverError, SolverError

__all__ = ["steady_state_ctmc"]

#: BiCGSTAB iteration cap for the operator path.  Each iteration costs two
#: operator applications; preconditioned solves on catalog-scale factors
#: converge in 150-250 iterations, largely independent of state count.
OPERATOR_MAXITER = 3000

#: GMRES stops at a backward error this many times below ``tol``.  The
#: pinned system amplifies the backward error into the answer: at ``tol``
#: itself, fig5 N=600 (361,802 states) lands 4e-7 from the direct solve,
#: at ``tol / 1000`` 4e-10, against 2e-9 for the seed's bordered system
#: (docs/performance.md, "Dense stationary solve").
GMRES_BACKWARD_MARGIN = 1000.0


def _closed_class(Qs: sp.csr_matrix) -> np.ndarray:
    """Ascending states of the chain's unique closed communicating class.

    States outside it are transient and carry no stationary mass; more
    than one closed class leaves the stationary law non-unique.
    """
    edges = Qs > 0
    n_comp, label = csgraph.connected_components(
        edges, directed=True, connection="strong"
    )
    if n_comp == 1:
        return np.arange(Qs.shape[0])
    edges = edges.tocoo()
    leaves = label[edges.row] != label[edges.col]
    open_class = np.zeros(n_comp, dtype=bool)
    open_class[label[edges.row[leaves]]] = True
    closed = np.flatnonzero(~open_class)
    if len(closed) != 1:
        raise SolverError(
            f"chain has {len(closed)} closed communicating classes; "
            "the stationary distribution is not unique"
        )
    return np.flatnonzero(label == closed[0])


def _reduced_system(
    Qs: sp.csr_matrix, states: np.ndarray, pin: int
) -> tuple[np.ndarray, sp.csc_matrix, np.ndarray]:
    """Balance equations of the closed class with ``pi_pin = 1`` pinned.

    Dropping the pinned row and column of ``-Q^T`` over the class leaves
    a nonsingular, column-diagonally-dominant M-matrix ``A``; the
    unknowns ``x = pi[keep] / pi[pin]`` solve ``A x = Q[pin, keep]``.
    Returns ``(keep, A, b)``.
    """
    keep = states[states != pin]
    A = -Qs[keep][:, keep]
    b = Qs[pin].toarray().ravel()[keep]
    return keep, A.T.tocsc(), b


def _expand(keep: np.ndarray, pin: int, x: np.ndarray, S: int) -> np.ndarray:
    """Normalized full-length ``pi`` from the pinned solution ``x``."""
    pi = np.zeros(S)
    pi[keep] = x
    pi[pin] = 1.0
    return pi / pi.sum()


def _pinned_solve(Qs: sp.csr_matrix, states: np.ndarray, factor, pin: int):
    """Factor and solve the reduced system, re-pinning a too-light pin.

    ``factor(A, b)`` returns ``(factorization, x)``.  The elimination
    pivots scale with ``pi_pin``: when the pin holds a tiny share of the
    mass, a pivot cancels to zero or to round-off of either sign, and
    ``x`` overflows or turns negative.  Then pin the heaviest state of the
    estimate instead (from a partially pivoted solve when the factorization
    itself broke down) and factor again.  Returns ``(keep, pin, A, b,
    factorization, x)``.
    """
    # Each re-pin lands on a state the estimate puts far above the old
    # pin, so a few tries suffice.
    for _ in range(4):
        keep, A, b = _reduced_system(Qs, states, pin)
        try:
            fact, x = factor(A, b)
        except RuntimeError:  # a pivot cancelled to exactly zero
            x = spla.spsolve(A, b)
        else:
            total = np.abs(x).sum()
            if np.isfinite(total) and x.min() >= -1e-8 * (1.0 + total):
                return keep, pin, A, b, fact, x
        pin = keep[int(np.argmax(np.nan_to_num(np.abs(x), nan=0.0)))]
    raise SolverError("stationary solve found no pin state that factors stably")


def _lu_factor(A: sp.csc_matrix, b: np.ndarray):
    # No pivoting is needed on an M-matrix: keep the diagonal and order
    # for the symmetric pattern of A + A^T (fill numbers in
    # docs/performance.md, "Dense stationary solve").
    lu = spla.splu(
        A,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return lu, lu.solve(b)


def _solve_direct(Qs: sp.csr_matrix, states: np.ndarray, span) -> np.ndarray:
    keep, pin, _, _, lu, x = _pinned_solve(Qs, states, _lu_factor, states[-1])
    span.count("ctmc.lu_nnz", int(lu.nnz))
    return _expand(keep, pin, x, Qs.shape[0])


def _ilu_estimate(A: sp.csc_matrix, b: np.ndarray):
    """ILU preconditioner of ``A`` (or ``None``) and its estimate of ``x``."""
    try:
        ilu = spla.spilu(A, drop_tol=1e-5, fill_factor=20)
    except RuntimeError:
        return None, np.ones(A.shape[0])
    return spla.LinearOperator(A.shape, ilu.solve), ilu.solve(b)


def _solve_gmres(Qs: sp.csr_matrix, states: np.ndarray, tol: float) -> np.ndarray:
    keep, pin, A, b, M, x_est = _pinned_solve(Qs, states, _ilu_estimate, states[-1])
    # Pin the most probable state instead: with a small pi_pin the
    # unknowns span many decades and GMRES stalls on round-off.
    top = int(np.argmax(x_est))
    if x_est[top] > 1.0:
        keep, pin, A, b, M, x_est = _pinned_solve(Qs, states, _ilu_estimate, keep[top])
    # Start from the uniform law and stop at a backward error of
    # ``tol / GMRES_BACKWARD_MARGIN``: residuals per unit of normalized
    # probability (mass = 1 / pi_pin) and per unit of rate.
    n = A.shape[0]
    mass = 1.0 + float(np.abs(x_est).sum())
    scale = mass * max(1.0, float(A.diagonal().max())) / GMRES_BACKWARD_MARGIN
    x, info = spla.gmres(
        A, b, x0=np.full(n, mass / (n + 1)), M=M, rtol=0.0, atol=tol * scale,
        maxiter=2000, restart=100,
    )
    if info != 0:
        residual = float(np.abs(A @ x - b).max()) / scale
        raise IterativeSolverError(
            solver="gmres",
            info=int(info),
            iterations=int(info) if info > 0 else 2000,
            residual=residual,
            tolerance=tol,
        )
    return _expand(keep, pin, x, Qs.shape[0])


def _solve_operator(Q: spla.LinearOperator, tol: float) -> np.ndarray:
    """Matrix-free stationary solve via rank-one-corrected BiCGSTAB.

    ``pi @ Q = 0`` is singular with a one-dimensional null space; the
    standard rank-one correction makes it definite without densifying:
    with ``u = 1/S`` uniform, ``A x = Q^T x + u (1^T x)`` satisfies
    ``A pi = u`` exactly for the (normalized) stationary vector, and ``A``
    applications cost one ``rmatvec`` plus a vector axpy.  The block
    preconditioner — when the operator offers one — inverts the per-
    composition phase blocks of ``Q^T``, which capture all the fast local
    phase dynamics.
    """
    S = Q.shape[0]
    u = np.full(S, 1.0 / S)
    n_applies = [0]

    def apply_A(x: np.ndarray) -> np.ndarray:
        n_applies[0] += 1
        x = np.asarray(x, dtype=float)
        return Q.rmatvec(x) + u * x.sum()

    A = spla.LinearOperator((S, S), matvec=apply_A, dtype=np.float64)
    M = None
    precond = getattr(Q, "phase_block_preconditioner", None)
    if precond is not None:
        apply_M = precond(transpose=True)
        if apply_M is not None:
            M = spla.LinearOperator((S, S), matvec=apply_M, dtype=np.float64)
    # BiCGSTAB's rtol is relative to ||b|| = ||u||; the post-solve residual
    # check in steady_state_ctmc is the authoritative accuracy gate.
    rtol = max(tol, 1e-10)
    pi, info = spla.bicgstab(
        A, u, x0=u.copy(), M=M, rtol=rtol, atol=0.0, maxiter=OPERATOR_MAXITER
    )
    if info != 0:
        residual = float(np.abs(apply_A(pi) - u).max())
        raise IterativeSolverError(
            solver="bicgstab",
            info=int(info),
            iterations=n_applies[0],
            residual=residual,
            tolerance=rtol,
        )
    return pi


def _steady_state_operator(
    Q: spla.LinearOperator, method: str, tol: float
) -> np.ndarray:
    """Validate + solve + clean for a matrix-free generator."""
    S = Q.shape[0]
    if Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got {Q.shape}")
    if method not in ("auto", "operator"):
        raise ValueError(
            f"method {method!r} requires an assembled matrix; matrix-free "
            "generators support method='operator' (or 'auto')"
        )
    if S == 1:
        return np.ones(1)
    diag_fn = getattr(Q, "diagonal", None)
    if not callable(diag_fn):
        raise ValueError(
            "matrix-free generators must expose a diagonal() method "
            "(used for rate-scale validation and uniformization)"
        )
    diag = np.asarray(diag_fn())
    scale = max(1.0, float(np.abs(diag).max()))
    # Conservation check via one matvec: Q @ 1 = row sums.
    rowsum = np.abs(Q.matvec(np.ones(S)))
    if np.any(rowsum > 1e-8 * scale):
        raise ValueError("Q rows must sum to zero (not a generator)")

    pi = _solve_operator(Q, tol=max(tol, 1e-12))

    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if np.any(pi < -1e-8):
        raise SolverError(
            f"stationary solve produced negative probabilities (min {pi.min():.3g})"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise SolverError("stationary solve produced a non-normalizable vector")
    pi /= total
    residual = np.abs(Q.rmatvec(pi)).max()
    if residual > 1e-6 * scale:
        raise SolverError(f"stationary residual too large: {residual:.3g}")
    return pi


def steady_state_ctmc(
    Q: "sp.spmatrix | np.ndarray | spla.LinearOperator",
    method: str = "auto",
    tol: float = 1e-12,
) -> np.ndarray:
    """Stationary distribution of the CTMC with generator ``Q``.

    Parameters
    ----------
    Q:
        Generator matrix (rows sum to zero), sparse or dense — or a
        matrix-free :class:`~scipy.sparse.linalg.LinearOperator` with
        ``matvec``/``rmatvec`` and a ``diagonal()`` method, which is
        solved iteratively without assembling the matrix.
    method:
        ``"direct"`` (sparse LU), ``"gmres"`` (ILU-preconditioned),
        ``"operator"`` (matrix-free preconditioned BiCGSTAB; requires a
        ``LinearOperator`` input), or ``"auto"`` (direct up to 300k
        states, GMRES beyond; operator for ``LinearOperator`` inputs).
    tol:
        Convergence/validation tolerance.

    Returns
    -------
    numpy.ndarray
        Probability vector ``pi`` with ``pi @ Q ~= 0`` and ``sum(pi) = 1``.

    Raises
    ------
    IterativeSolverError
        When an iterative method (GMRES or operator BiCGSTAB) stops
        before reaching its residual target.
    """
    if isinstance(Q, spla.LinearOperator) and not sp.issparse(Q):
        return _steady_state_operator(Q, method=method, tol=tol)
    if method == "operator":
        raise ValueError(
            "method='operator' requires a LinearOperator generator "
            "(see repro.markov.kronop); got an assembled matrix"
        )
    Qs = sp.csr_matrix(Q) if not sp.issparse(Q) else Q.tocsr()
    S = Qs.shape[0]
    if Qs.shape[0] != Qs.shape[1]:
        raise ValueError(f"Q must be square, got {Qs.shape}")
    rowsum = np.abs(np.asarray(Qs.sum(axis=1)).ravel())
    scale = max(1.0, float(np.abs(Qs.diagonal()).max()))
    if np.any(rowsum > 1e-8 * scale):
        raise ValueError("Q rows must sum to zero (not a generator)")
    if S == 1:
        return np.ones(1)

    if method == "auto":
        method = "direct" if S <= 300_000 else "gmres"
    if method not in ("direct", "gmres"):
        raise ValueError(f"unknown method {method!r}")
    with obs.get_telemetry().span(
        "ctmc.solve", n_states=S, nnz=int(Qs.nnz), method=method
    ) as span:
        states = _closed_class(Qs)
        if len(states) == 1:  # one absorbing state
            pi = np.zeros(S)
            pi[states] = 1.0
        elif method == "direct":
            pi = _solve_direct(Qs, states, span)
        else:
            pi = _solve_gmres(Qs, states, tol=max(tol, 1e-12))

    # Clean round-off and validate.
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if np.any(pi < -1e-8):
        raise SolverError(
            f"stationary solve produced negative probabilities (min {pi.min():.3g})"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise SolverError("stationary solve produced a non-normalizable vector")
    pi /= total
    residual = np.abs(pi @ Qs).max()
    if residual > 1e-6 * scale:
        raise SolverError(f"stationary residual too large: {residual:.3g}")
    return pi

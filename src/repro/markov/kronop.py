"""Matrix-free Kronecker representation of structured CTMC generators.

The generator of a closed MAP queueing network is structurally a sum of
Kronecker products of small per-station matrices acting on the joint
``(composition, phase)`` state space — yet the materialized sparse ``Q``
grows combinatorially (``C(N+M-1, N) * prod K_k`` rows), which is exactly
the storage wall that makes exact and transient analysis "prohibitive" in
the paper's terms.  This module stores only the **factors** and computes
``Q @ x`` / ``x @ Q`` on demand:

* the state space factorizes as ``comp_rank * n_phase + phase_code`` with
  row-major mixed-radix phase codes, so a state vector reshapes to a
  ``(Sc, n_phase)`` matrix with no data movement;
* each station contributes a **local term** (phase transitions of
  ``D0 + p_jj D1`` off the diagonal, population unchanged) applied by
  contracting one mixed-radix axis with a ``(K_j, K_j)`` matrix, and one
  **move term** per routing target (``p_jk D1_j`` phase contraction plus a
  precomputed injective composition shift ``n - e_j + e_k``);
* the diagonal is the closed form ``-sum_j c_j(n_j) r_j(h_j)`` with
  ``r_j`` the per-phase total exit rate, precomputed once as a dense
  ``(Sc, n_phase)`` array — the same O(S) footprint as one state vector;
* both conventions run one apply plan built at construction: each
  station's phase factors are stored in the shape of their BLAS call,
  with routing probabilities folded in and non-unit rate scales kept as
  busy-row weights (:class:`_StationPlan`).

Storage is ``O(S + M * Sc)`` (the diagonal plus the composition index
arrays) instead of ``O(nnz(Q))``; one matvec costs the same
``O(S * sum_j K_j)`` arithmetic as a sparse multiply would, without ever
assembling ``Q``.  :meth:`KroneckerGenerator.materialize` rebuilds the
sparse matrix for small spaces — emitting transitions in exactly the
assembled generator's order, so the result is bit-compatible with
:func:`repro.network.exact.build_generator` (the equivalence suite in
``tests/markov/test_kronop_equivalence.py`` asserts canonical-CSR
equality on every catalog scenario).

This module is network-agnostic: it consumes plain factor data
(:class:`StationFactor`).  The glue that derives factors from a
:class:`~repro.network.model.Network` lives in :mod:`repro.network.kron`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs

__all__ = ["KroneckerGenerator", "MoveTerm", "StationFactor"]


@dataclass(frozen=True)
class MoveTerm:
    """One routed service-completion term ``p_jk D1_j`` with its comp shift.

    Attributes
    ----------
    target:
        Destination station index ``k`` (never the owning station).
    prob:
        Routing probability ``p_jk`` (> 0).
    dst:
        ``(n_busy,)`` destination composition ranks, aligned with the
        owning factor's ``busy`` array: ``dst[i] = rank(comps[busy[i]]
        - e_j + e_k)``.  The shift is injective, so scatter-adds over
        ``dst`` never collide.
    """

    target: int
    prob: float
    dst: np.ndarray


@dataclass(frozen=True)
class StationFactor:
    """Per-station factor data of a Kronecker-structured generator.

    Attributes
    ----------
    station:
        Position ``j`` of this station (also its mixed-radix phase axis).
    D0, D1:
        The station's MAP matrices, ``(K_j, K_j)``.
    p_row:
        Routing row ``routing[j, :]`` (length ``M``; ``p_row[j]`` is the
        self-routing mass folded into the local term).
    scale:
        ``(Sc,)`` rate multipliers ``c_j(n_j)`` per composition (zero at
        ``n_j = 0`` — idle stations make no transitions).
    busy:
        Composition ranks with ``n_j >= 1``, ascending.
    moves:
        :class:`MoveTerm` per off-station routing target with
        ``p_jk > 0``, ascending by target.
    """

    station: int
    D0: np.ndarray
    D1: np.ndarray
    p_row: np.ndarray
    scale: np.ndarray
    busy: np.ndarray
    moves: tuple[MoveTerm, ...]

    @property
    def order(self) -> int:
        """Number of MAP phases ``K_j``."""
        return self.D0.shape[0]

    @cached_property
    def local(self) -> np.ndarray:
        """Off-diagonal local phase dynamics ``offdiag(D0 + p_jj D1)``."""
        p_self = float(self.p_row[self.station])
        L = self.D0 + p_self * self.D1
        return L - np.diag(np.diag(L))

    @cached_property
    def exit_rates(self) -> np.ndarray:
        """Total outflow rate per phase (off-diagonal row sums + moves).

        ``r_j[a] = sum_{b != a} D0[a,b] + sum_b D1[a,b] - p_jj D1[a,a]``:
        everything that leaves state ``(n, a)`` when station j is busy —
        hidden phase changes, routed completions, and self-routed phase
        changes (the self-routed ``a -> a`` completion is invisible in the
        generator and cancels).
        """
        off0 = self.D0 - np.diag(np.diag(self.D0))
        p_self = float(self.p_row[self.station])
        return (
            off0.sum(axis=1)
            + self.D1.sum(axis=1)
            - p_self * np.diag(self.D1)
        )

    @property
    def nbytes(self) -> int:
        """Factor storage footprint in bytes."""
        total = self.D0.nbytes + self.D1.nbytes + self.p_row.nbytes
        total += self.scale.nbytes + self.busy.nbytes
        total += sum(m.dst.nbytes for m in self.moves)
        return total


#: Trailing-block length up to which a phase contraction runs as one GEMM
#: against ``kron(B, I_post)``; longer blocks use ``K^2`` scaled adds over
#: contiguous slabs.  The crossover is measured in docs/performance.md
#: ("The Kronecker kernel").
GEMM_MAX_POST = 32


def _rows(idx: np.ndarray) -> "slice | np.ndarray":
    """``idx`` as a slice when it is one contiguous run (views, no copies)."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class _Contraction:
    """Right-multiplication of ``(R, n_phase)`` rows by ``I_pre (x) B (x) I_post``.

    ``B`` acts on one mixed-radix phase axis whose codes factor as
    ``(pre, K, post)`` in row-major order.  With a short trailing block
    the whole product is one GEMM of the contiguous ``(R*pre, K*post)``
    reshape against ``kron(B, I_post)``; otherwise it runs as ``K^2``
    scaled adds over ``(R*pre, post)`` slabs, skipping zero weights.
    """

    __slots__ = ("pre", "K", "post", "B", "F")

    def __init__(self, B: np.ndarray, pre: int, post: int) -> None:
        self.pre, self.K, self.post = pre, B.shape[0], post
        self.B = np.ascontiguousarray(B)
        self.F = np.kron(B, np.eye(post)) if post <= GEMM_MAX_POST else None

    @property
    def nbytes(self) -> int:
        return self.B.nbytes + (0 if self.F is None else self.F.nbytes)

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        R, width = Z.shape
        pre, K, post = self.pre, self.K, self.post
        if self.F is not None:
            return (Z.reshape(R * pre, K * post) @ self.F).reshape(R, width)
        Zr = Z.reshape(R * pre, K, post)
        out = np.zeros((R, width))
        Yr = out.reshape(R * pre, K, post)
        tmp = np.empty((R * pre, post))
        for b in range(K):
            for a in range(K):
                w = self.B[a, b]
                if w != 0.0:
                    np.multiply(Zr[:, a, :], w, out=tmp)
                    Yr[:, b, :] += tmp
        return out


class _StationPlan:
    """One station's part of the apply, built once per operator.

    ``terms`` pairs the composition rows each phase factor touches with
    that factor in both conventions: the local term ``offdiag(D0 + p_jj
    D1)`` on the busy rows (skipped when all zero) and one ``p_jk D1``
    per routing target on its shifted rows.  ``weights`` holds the rate
    scales ``c_j(n)`` of the busy rows, or ``None`` when they are all one
    (queues), so unit scales cost no pass at all.
    """

    __slots__ = ("busy", "weights", "terms")

    def __init__(self, f: StationFactor, pre: int, post: int) -> None:
        self.busy = _rows(f.busy)
        w = f.scale[f.busy]
        self.weights = None if np.all(w == 1.0) else w[:, None].copy()
        terms = []
        if np.any(f.local != 0.0):
            terms.append((self.busy, f.local))
        terms.extend((_rows(m.dst), m.prob * f.D1) for m in f.moves)
        self.terms = tuple(
            (rows, _Contraction(B, pre, post), _Contraction(B.T, pre, post))
            for rows, B in terms
        )

    @property
    def nbytes(self) -> int:
        total = 0 if self.weights is None else self.weights.nbytes
        return total + sum(fwd.nbytes + bwd.nbytes for _, fwd, bwd in self.terms)

    def rmatvec_into(self, X: np.ndarray, Y: np.ndarray) -> None:
        """``Y += X @ Q_j`` (row convention): contract, then scatter rows."""
        Z = X[self.busy]
        if self.weights is not None:
            Z = Z * self.weights
        for rows, fwd, _ in self.terms:
            Y[rows] += fwd(Z)

    def matvec_into(self, X: np.ndarray, Y: np.ndarray) -> None:
        """``Y += Q_j @ X`` (column convention): gather rows, then contract."""
        rows, _, bwd = self.terms[0]
        acc = bwd(X[rows])
        for rows, _, bwd in self.terms[1:]:
            acc += bwd(X[rows])
        if self.weights is not None:
            acc *= self.weights
        Y[self.busy] += acc


class KroneckerGenerator(spla.LinearOperator):
    """Matrix-free CTMC generator over a ``(composition, phase)`` space.

    Implements the scipy :class:`~scipy.sparse.linalg.LinearOperator`
    protocol: ``matvec(x)`` is ``Q @ x`` (column convention, what Krylov
    solvers consume) and ``rmatvec(x)`` is ``x @ Q`` (row convention, what
    uniformization sweeps consume) — both computed from the per-station
    factors without materializing ``Q``.

    Parameters
    ----------
    phase_dims:
        Per-station phase orders (the mixed-radix dimensions).
    factors:
        One :class:`StationFactor` per station, in station order.
    phase_digits:
        Optional precomputed ``(n_phase, M)`` digit table (shared from a
        :class:`~repro.network.statespace.PhaseLayout`); derived when
        omitted.

    Notes
    -----
    Every matvec/rmatvec bumps the process-wide ``kron.matvecs`` telemetry
    counter and the instance's :attr:`n_matvecs`, so operator-backed
    solves report the same deterministic cost measure as the dense path.
    """

    def __init__(
        self,
        phase_dims,
        factors,
        phase_digits: "np.ndarray | None" = None,
    ) -> None:
        dims = np.asarray(phase_dims, dtype=np.int64)
        if dims.ndim != 1 or len(dims) == 0 or (dims < 1).any():
            raise ValueError(f"invalid phase dims {phase_dims!r}")
        factors = tuple(factors)
        if len(factors) != len(dims):
            raise ValueError(
                f"{len(factors)} factors for {len(dims)} phase dimensions"
            )
        self.phase_dims = dims
        self.n_phase = int(np.prod(dims))
        self.factors = factors
        self.n_comps = int(len(factors[0].scale))
        for f in factors:
            if f.D0.shape != (dims[f.station],) * 2:
                raise ValueError(
                    f"factor {f.station} has order {f.D0.shape[0]}, "
                    f"phase dim is {dims[f.station]}"
                )
            if len(f.scale) != self.n_comps:
                raise ValueError("factor scale lengths disagree")
        size = self.n_comps * self.n_phase
        super().__init__(dtype=np.float64, shape=(size, size))
        if phase_digits is None:
            strides = self._strides
            codes = np.arange(self.n_phase, dtype=np.int64)
            phase_digits = np.empty((self.n_phase, len(dims)), dtype=np.int64)
            for j in range(len(dims)):
                phase_digits[:, j] = (codes // strides[j]) % dims[j]
        self.phase_digits = phase_digits
        #: Matrix-vector products computed by this operator (both
        #: conventions), the deterministic cost measure benches gate on.
        self.n_matvecs = 0
        self._diag2 = self._build_diagonal()
        plan = []
        for f in factors:
            if len(f.busy):
                pre, _, post = self._axis_split(f.station)
                plan.append(_StationPlan(f, pre, post))
        # a station with no phase dynamics and no routed moves adds nothing
        self._plan = tuple(p for p in plan if p.terms)

    # ------------------------------------------------------------------ #
    # layout helpers
    # ------------------------------------------------------------------ #
    @cached_property
    def _strides(self) -> np.ndarray:
        dims = self.phase_dims
        strides = np.ones(len(dims), dtype=np.int64)
        for j in range(len(dims) - 2, -1, -1):
            strides[j] = strides[j + 1] * dims[j + 1]
        return strides

    def _axis_split(self, j: int) -> tuple[int, int, int]:
        """``(pre, K, post)`` factorization of the phase axis at station j."""
        dims = self.phase_dims
        pre = int(np.prod(dims[:j])) if j > 0 else 1
        post = int(np.prod(dims[j + 1 :])) if j < len(dims) - 1 else 1
        return pre, int(dims[j]), post

    def _build_diagonal(self) -> np.ndarray:
        """``(Sc, n_phase)`` diagonal ``-sum_j c_j(n_j) r_j(h_j)``."""
        diag2 = np.zeros((self.n_comps, self.n_phase))
        for f in self.factors:
            rates = f.exit_rates[self.phase_digits[:, f.station]]
            diag2 -= np.outer(f.scale, rates)
        return diag2

    # ------------------------------------------------------------------ #
    # the operator protocol
    # ------------------------------------------------------------------ #
    def diagonal(self) -> np.ndarray:
        """The diagonal of ``Q`` as a flat length-``S`` vector (a view)."""
        return self._diag2.reshape(-1)

    def _count(self) -> None:
        self.n_matvecs += 1
        obs.get_telemetry().counter("kron.matvecs")

    def _rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Row convention ``x @ Q`` (uniformization steps, residuals)."""
        self._count()
        X = np.asarray(x, dtype=float).reshape(self.n_comps, self.n_phase)
        Y = X * self._diag2
        for plan in self._plan:
            plan.rmatvec_into(X, Y)
        return Y.reshape(-1)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """Column convention ``Q @ x`` (Krylov steady-state solves)."""
        self._count()
        X = np.asarray(x, dtype=float).reshape(self.n_comps, self.n_phase)
        Y = X * self._diag2
        for plan in self._plan:
            plan.matvec_into(X, Y)
        return Y.reshape(-1)

    # ------------------------------------------------------------------ #
    # diagnostics and escape hatches
    # ------------------------------------------------------------------ #
    def rowsum_residual(self) -> float:
        """``max_i |sum_j Q_ij|`` via one matvec — the generator invariant."""
        return float(np.abs(self.matvec(np.ones(self.shape[0]))).max())

    @property
    def nbytes(self) -> int:
        """Operator storage: diagonal, digit table, factors and apply plan."""
        total = self._diag2.nbytes + self.phase_digits.nbytes
        total += sum(f.nbytes for f in self.factors)
        total += sum(plan.nbytes for plan in self._plan)
        return total

    def materialized_nnz(self) -> int:
        """COO entries :meth:`materialize` would emit (before dedup).

        Closed form from the factor sparsity patterns — the honest basis
        for the memory-win benchmark at sizes where materializing to
        count is exactly what we cannot do.
        """
        digits = self.phase_digits
        total = 0
        for f in self.factors:
            n_busy = len(f.busy)
            if n_busy == 0:
                continue
            counts = np.bincount(
                digits[:, f.station], minlength=f.order
            )  # phase codes per digit value
            for k, p_jk in enumerate(f.p_row):
                if p_jk <= 0.0:
                    continue
                D1 = f.D1
                for a in range(f.order):
                    for b in range(f.order):
                        if D1[a, b] * p_jk <= 0.0:
                            continue
                        if k == f.station and a == b:
                            continue
                        total += n_busy * int(counts[a])
            D0 = f.D0
            for a in range(f.order):
                for b in range(f.order):
                    if a != b and D0[a, b] > 0.0:
                        total += n_busy * int(counts[a])
        total += self.shape[0]  # the diagonal
        return total

    def materialize(self, comp_ranks_check: bool = False) -> sp.csr_matrix:
        """Assemble the sparse ``Q`` this operator represents.

        Emits transitions in exactly the order of
        :func:`repro.network.exact.build_generator` — same loops, same
        float products — so the resulting CSR matrix is bit-identical to
        the directly assembled generator (asserted by the equivalence
        suite).  An escape hatch for small spaces; at operator scale this
        is precisely the allocation the matrix-free path avoids.
        """
        n_phase = self.n_phase
        digits = self.phase_digits
        strides = self._strides
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []

        def emit(comp_src, comp_dst, ph_src, ph_dst, rate_per_comp, unit_rate):
            r = (comp_src[:, None] * n_phase + ph_src[None, :]).ravel()
            c = (comp_dst[:, None] * n_phase + ph_dst[None, :]).ravel()
            v = np.broadcast_to(
                (rate_per_comp * unit_rate)[:, None],
                (len(comp_src), len(ph_src)),
            ).ravel()
            rows.append(r)
            cols.append(c)
            vals.append(np.ascontiguousarray(v))

        for f in self.factors:
            j = f.station
            Kj = f.order
            busy = f.busy
            if len(busy) == 0:
                continue
            scale = f.scale[busy]
            ph_groups = [np.nonzero(digits[:, j] == a)[0] for a in range(Kj)]
            stride_j = strides[j]
            dst_by_target = {m.target: m.dst for m in f.moves}
            for k in range(len(f.p_row)):
                p_jk = f.p_row[k]
                if p_jk <= 0.0:
                    continue
                comp_dst = busy if k == j else dst_by_target[k]
                for a in range(Kj):
                    ph_src = ph_groups[a]
                    for b in range(Kj):
                        rate = f.D1[a, b] * p_jk
                        if rate <= 0.0:
                            continue
                        if k == j and a == b:
                            continue
                        ph_dst = ph_src + (b - a) * stride_j
                        emit(busy, comp_dst, ph_src, ph_dst, scale, rate)
            for a in range(Kj):
                ph_src = ph_groups[a]
                for b in range(Kj):
                    if a == b:
                        continue
                    rate = f.D0[a, b]
                    if rate <= 0.0:
                        continue
                    ph_dst = ph_src + (b - a) * stride_j
                    emit(busy, busy, ph_src, ph_dst, scale, rate)

        S = self.shape[0]
        if rows:
            r = np.concatenate(rows)
            c = np.concatenate(cols)
            v = np.concatenate(vals)
        else:
            r = c = np.empty(0, dtype=np.int64)
            v = np.empty(0)
        Q = sp.coo_matrix((v, (r, c)), shape=(S, S)).tocsr()
        Q.setdiag(Q.diagonal() - np.asarray(Q.sum(axis=1)).ravel())
        return Q

    # ------------------------------------------------------------------ #
    # preconditioning support
    # ------------------------------------------------------------------ #
    def phase_block_preconditioner(
        self,
        transpose: bool = True,
        max_patterns: int = 512,
        shift: float = 1e-8,
    ):
        """Block-Jacobi solver over the phase axis, or ``None``.

        For a fixed composition the diagonal block of ``Q`` over the phase
        codes depends only on the station **scale pattern**
        ``(c_1(n_1), ..., c_M(n_M))`` — for pure queue networks that is at
        most ``2^M`` distinct ``(n_phase, n_phase)`` blocks shared by all
        compositions.  Each block is inverted once (with a small
        ``shift`` making the singular all-busy block invertible) and the
        returned callable applies the inverse group-wise — the "cheap
        block preconditioner" of the operator steady-state path.

        Returns ``None`` when the blocks would not be cheap: more than
        ``max_patterns`` distinct patterns (delay stations at large N) or
        a phase space too large to invert densely.
        """
        n_phase = self.n_phase
        if n_phase > 1024:
            return None
        scales = np.stack([f.scale for f in self.factors], axis=1)
        keys, inverse = np.unique(scales, axis=0, return_inverse=True)
        if len(keys) > max_patterns:
            return None
        digits = self.phase_digits
        inv_blocks = []
        eye = np.eye(n_phase)
        for key in keys:
            B = np.zeros((n_phase, n_phase))
            for j, f in enumerate(self.factors):
                s = float(key[j])
                if s == 0.0:
                    continue
                pre, K, post = self._axis_split(f.station)
                if K > 1:
                    B += s * np.kron(
                        np.kron(np.eye(pre), f.local), np.eye(post)
                    )
                B -= s * np.diag(f.exit_rates[digits[:, f.station]])
            if transpose:
                B = B.T
            # Shift off the exact singularity of conservative blocks.
            B = B - shift * eye
            try:
                inv = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                return None
            # Stored transposed so the group apply is a row-matmul.
            inv_blocks.append(np.ascontiguousarray(inv.T))
        groups = [np.nonzero(inverse == g)[0] for g in range(len(keys))]
        n_comps = self.n_comps

        def apply(x: np.ndarray) -> np.ndarray:
            X = np.asarray(x, dtype=float).reshape(n_comps, n_phase)
            out = np.empty_like(X)
            for g, rows in enumerate(groups):
                out[rows] = X[rows] @ inv_blocks[g]
            return out.reshape(-1)

        return apply

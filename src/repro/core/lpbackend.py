"""Persistent warm-started HiGHS LP backend: the one LP solve path.

Every LP bound in the package is solved here.  The alternative — a
stateless solve that rebuilds the HiGHS model from the scipy matrices,
runs presolve from scratch and throws the optimal basis away — is exactly
where the time went on the marginal-balance polytopes:
``BENCH_lp_scaling.json`` showed a single M = 10, N = 25 bound pair at
35.9s while constraint assembly took 0.07s.

This module keeps the solver alive instead:

``PersistentLP``
    wraps one HiGHS instance over one :class:`ConstraintSystem`.  The model
    is passed to the solver once; subsequent objectives swap only the cost
    vector (``changeColsCost``) and the optimization sense.  The min/max
    pair of a metric reuses the optimal basis left by the first solve, and
    sweeps over adjacent populations warm-start from a *mapped* basis (see
    below).  :meth:`PersistentLP.solve` holds the package's only retry
    ladder (alternate algorithm, then simplex with presolve off).

``choose_lp_method``
    the auto-method rule, tuned against this backend's measurements.  The
    seed inherited ``_IPM_THRESHOLD = 20_000``; measured on the
    ring-of-MAP(2) family, interior point already beats dual simplex at
    ~850 variables (0.16s vs 0.20s per pair) and wins by 4-6x from ~4,000
    variables up (M = 10, N = 10: 38-72s per simplex solve vs 3-4s IPM).
    The corrected threshold is 1,000.

``LPLineageStore``
    a process-wide map ``topology_key -> per-(metric, sense) basis
    snapshots``.  Adjacent sweep populations N -> N+1 solve near-identical
    polytopes; the store carries each lineage's last optimal basis between
    :class:`~repro.runtime.batch.BatchLPSolver` instances (and, because it
    is process-wide, between sweep points inside one worker process).

Warm-start mechanics: the variable layout of :class:`VariableIndex` gives
every block exactly one population-dependent axis, so old -> new column
index maps are a vectorized reshape; constraint rows are matched by their
exact labels (population-independent strings like ``"S1[j=0,k=1,...]"``).
Unmatched new columns start nonbasic at their lower bound, unmatched new
rows start basic (their slack enters the basis), and the basis is marked
``alien`` so HiGHS repairs the singular leftovers.  Measured on the
ring-of-MAP(2) lineages: 4-7x fewer simplex iterations than a cold solve
(195-315 against 1,193-1,747 at M = 3), values agreeing to 1e-15.  Warm
starts only materialize when the resolved method is simplex: interior
point ignores start bases, and a simplex start forced past the auto
threshold loses outright (an IPM-crossover-sourced basis warm-started
10.9k iterations against an 88-iteration cold IPM solve) — so above
``_IPM_THRESHOLD`` every solve runs cold interior point and the lineage
store is not consulted.

Binding discovery prefers a real ``highspy`` installation (the optional
``repro[highs]`` extra) and otherwise uses the copy of HiGHS that
scipy >= 1.15 vendors, so the required scipy alone is enough.
:func:`resolve_backend` is the one check that a binding imported.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.utils.errors import SolverError

__all__ = [
    "PersistentLP",
    "LPRunInfo",
    "LPLineageStore",
    "choose_lp_method",
    "get_lp_lineage_store",
    "highs_impl",
    "resolve_backend",
]


# ---------------------------------------------------------------------- #
# method selection
# ---------------------------------------------------------------------- #
#: Above this variable count, interior point beats HiGHS's dual simplex on
#: these highly degenerate balance polytopes.  Re-measured for the
#: persistent backend: IPM is already ahead at ~850 variables and wins by
#: 4-6x from ~4,000 up (the seed value of 20,000 left M = 10 sweeps on a
#: 6x-slower simplex path).
_IPM_THRESHOLD = 1_000

#: HiGHS ``simplex_strategy`` values: let HiGHS choose (dual) vs primal.
_SIMPLEX_STRATEGY_CHOOSE = 0
_SIMPLEX_STRATEGY_PRIMAL = 4


def choose_lp_method(n_variables: int) -> str:
    """Auto method for a cold solve: ``"highs"`` (dual simplex) for small
    systems, ``"highs-ipm"`` (interior point) past ``_IPM_THRESHOLD``."""
    return "highs" if n_variables <= _IPM_THRESHOLD else "highs-ipm"


# ---------------------------------------------------------------------- #
# backend discovery
# ---------------------------------------------------------------------- #
def _load_highs():
    """(module, Highs class, impl name) of the best available HiGHS binding."""
    try:
        import highspy  # optional dependency: the repro[highs] extra

        return highspy, highspy.Highs, "highspy"
    except ImportError:
        pass
    try:
        # scipy >= 1.15 vendors highspy for its own HiGHS solves; same
        # pybind11 API surface, private location — hence the gated fallback.
        from scipy.optimize._highspy import _core

        cls = getattr(_core, "Highs", None) or _core._Highs
        return _core, cls, "scipy-vendored"
    except (ImportError, AttributeError):
        return None, None, None


_HIGHS_MOD, _HIGHS_CLS, _HIGHS_IMPL = _load_highs()


def highs_impl() -> "str | None":
    """``"highspy"`` | ``"scipy-vendored"`` | ``None`` (which binding)."""
    return _HIGHS_IMPL


def resolve_backend(backend: str = "auto") -> str:
    """The one binding check: ``"highs"`` whenever a HiGHS binding imports.

    ``"auto"`` and ``"highs"`` name the same engine — there is no other.

    Raises
    ------
    ValueError
        For any other request, ``"scipy"`` included.
    SolverError
        When neither ``highspy`` nor the HiGHS copy vendored by
        ``scipy>=1.15`` is importable.
    """
    if backend not in ("auto", "highs"):
        raise ValueError(
            f"unknown LP backend {backend!r}; expected 'auto' or 'highs'"
        )
    if _HIGHS_MOD is None:
        raise SolverError(
            "no HiGHS binding is importable: the LP solver needs scipy>=1.15 "
            "(which vendors HiGHS) or highspy (pip install 'repro[highs]')"
        )
    return "highs"


# ---------------------------------------------------------------------- #
# the persistent solver
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class LPRunInfo:
    """Outcome of one :meth:`PersistentLP.solve`."""

    value: float
    x: np.ndarray
    sense: str
    method_used: str     # "highs" | "highs-ipm" (ladder step that succeeded)
    n_iterations: int    # simplex + ipm + crossover iterations
    n_fallbacks: int     # retry-ladder steps taken
    warm_started: bool


class PersistentLP:
    """One HiGHS model per constraint system, many objectives per model.

    Parameters
    ----------
    system:
        Assembled :class:`~repro.core.constraints.ConstraintSystem`.
    method:
        ``"auto"`` (every solve follows :func:`choose_lp_method`; warm
        starts then only materialize in the simplex regime) or an
        explicit ``"highs"`` / ``"highs-ipm"`` that every solve honors.
    """

    def __init__(self, system, method: str = "auto") -> None:
        resolve_backend()
        if method not in ("auto", "highs", "highs-ipm"):
            raise ValueError(
                f"unknown LP method {method!r}; expected 'auto', 'highs' "
                "or 'highs-ipm'"
            )
        self.system = system
        self.method = method
        self.n_variables = int(system.n_variables)
        self._col_indices = np.arange(self.n_variables, dtype=np.int32)
        self._have_basis = False
        self._h = _HIGHS_CLS()
        self._h.setOptionValue("output_flag", False)
        self._h.passModel(self._build_model())
        obs.get_telemetry().counter("lp.model_rebuild")

    # ------------------------------------------------------------------ #
    def _build_model(self):
        """The HiGHS LP: equalities stacked over inequalities, row-wise CSR."""
        hc = _HIGHS_MOD
        s = self.system
        A = sp.vstack([s.A_eq.tocsr(), s.A_ub.tocsr()], format="csr")
        m_ub = int(s.n_inequalities)
        lp = hc.HighsLp()
        lp.num_col_ = self.n_variables
        lp.num_row_ = int(A.shape[0])
        lp.col_cost_ = np.zeros(self.n_variables)
        lb = np.asarray(s.lb, dtype=float).copy()
        ub = np.asarray(s.ub, dtype=float).copy()
        lb[~np.isfinite(lb)] = -hc.kHighsInf
        ub[~np.isfinite(ub)] = hc.kHighsInf
        lp.col_lower_ = lb
        lp.col_upper_ = ub
        lp.row_lower_ = np.concatenate([s.b_eq, np.full(m_ub, -hc.kHighsInf)])
        lp.row_upper_ = np.concatenate([s.b_eq, s.b_ub])
        lp.a_matrix_.format_ = hc.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        return lp

    @property
    def n_rows(self) -> int:
        return int(self.system.n_rows)

    # ------------------------------------------------------------------ #
    def _resolve_method(self) -> str:
        if self.method != "auto":
            return self.method
        return choose_lp_method(self.n_variables)

    def _configure(self, method: str, presolve: bool = True) -> None:
        self._h.setOptionValue(
            "solver", "ipm" if method == "highs-ipm" else "simplex"
        )
        self._h.setOptionValue("presolve", "on" if presolve else "off")

    def _run_ok(self) -> bool:
        self._h.run()
        return self._h.getModelStatus() == _HIGHS_MOD.HighsModelStatus.kOptimal

    def solve(
        self,
        c: "np.ndarray | None" = None,
        sense: str = "min",
        warm_basis=None,
        reuse_basis: bool = False,
    ) -> LPRunInfo:
        """Optimize ``c @ x`` over the model in the given sense.

        ``warm_basis`` is a mapped :class:`HighsBasis` (see
        :func:`map_basis_snapshot`) to start from — dual simplex repairs
        the alien basis and finishes in a fraction of the cold iteration
        count when the basis comes from the same (metric, sense) at an
        adjacent population.  ``reuse_basis`` keeps whatever basis the
        previous solve of *this* object left and switches to *primal*
        simplex: the min/max-pair case, where the kept basis stays primal
        feasible because only the objective flipped (measured ~1.8x fewer
        iterations than a cold max).  With neither, the solver state is
        cleared — a basis carried across *different* objectives is poison
        (22.9k iterations against 8.4k cold), as is any simplex start on
        the big degenerate instances, so warm requests only materialize
        when the resolved method is simplex; interior point always runs
        cold.

        HiGHS occasionally reports spurious infeasibility on the
        ill-conditioned instances this polytope produces (high-SCV MAP(2)
        moments put 4+ orders of magnitude between coefficients).  The
        exact constraints are feasible by construction, so a failed solve
        walks the retry ladder — the alternate HiGHS algorithm, then
        simplex with presolve disabled — and raises :class:`SolverError`
        only after the full ladder fails.
        """
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        hc = _HIGHS_MOD
        if c is not None:
            self._h.changeColsCost(
                self.n_variables, self._col_indices, np.asarray(c, dtype=float)
            )
        self._h.changeObjectiveSense(
            hc.ObjSense.kMinimize if sense == "min" else hc.ObjSense.kMaximize
        )

        want_warm = warm_basis is not None or (reuse_basis and self._have_basis)
        method = self._resolve_method()
        # A warm request only materializes on simplex: IPM ignores bases,
        # and forcing simplex past the auto threshold loses (measured).
        warm = want_warm and method == "highs"
        if warm and warm_basis is not None:
            self._h.setBasis(warm_basis)
        elif not (warm and reuse_basis):
            self._h.clearSolver()  # cold: drop any stale basis/solution
            warm = False
        self._configure(method)
        pair_reuse = warm and warm_basis is None
        if pair_reuse:
            self._h.setOptionValue(
                "simplex_strategy", _SIMPLEX_STRATEGY_PRIMAL
            )

        try:
            ok = self._run_ok()
        finally:
            if pair_reuse:
                self._h.setOptionValue(
                    "simplex_strategy", _SIMPLEX_STRATEGY_CHOOSE
                )
        method_used = method
        n_fallbacks = 0
        if not ok:
            # The retry ladder: the alternate HiGHS algorithm, then simplex
            # with presolve disabled.  Each retry starts cold — a basis
            # that just failed must not leak in.
            tele = obs.get_telemetry()
            alternate = "highs" if method == "highs-ipm" else "highs-ipm"
            for meth, presolve in ((alternate, True), ("highs", False)):
                tele.counter("lp.retry_step")
                n_fallbacks += 1
                self._h.clearSolver()
                self._configure(meth, presolve=presolve)
                method_used = meth
                if self._run_ok():
                    ok = True
                    break
        # leave presolve on for whoever solves next
        self._h.setOptionValue("presolve", "on")
        if not ok:
            raise SolverError(
                f"persistent LP {sense} failed: model status "
                f"{self._h.getModelStatus()} after {n_fallbacks} retries"
            )

        info = self._h.getInfo()
        iterations = (
            int(info.simplex_iteration_count)
            + int(info.ipm_iteration_count)
            + int(info.crossover_iteration_count)
        )
        self._have_basis = bool(self._h.getBasis().valid)
        return LPRunInfo(
            value=float(self._h.getObjectiveValue()),
            x=np.asarray(self._h.getSolution().col_value, dtype=float),
            sense=sense,
            method_used=method_used,
            n_iterations=iterations,
            n_fallbacks=n_fallbacks,
            warm_started=warm,
        )

    # ------------------------------------------------------------------ #
    def basis_snapshot(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """(column statuses, row statuses) as compact int8 arrays."""
        basis = self._h.getBasis()
        if not basis.valid:
            return None
        col = np.fromiter(map(int, basis.col_status), dtype=np.int8)
        row = np.fromiter(map(int, basis.row_status), dtype=np.int8)
        return col, row

    def make_basis(self, col_status: np.ndarray, row_status: np.ndarray):
        """A ``HighsBasis`` (marked alien) from int8 status arrays."""
        hc = _HIGHS_MOD
        basis = hc.HighsBasis()
        basis.col_status = [hc.HighsBasisStatus(int(s)) for s in col_status]
        basis.row_status = [hc.HighsBasisStatus(int(s)) for s in row_status]
        basis.valid = True
        basis.alien = True  # let HiGHS repair the mapped/singular leftovers
        return basis


# ---------------------------------------------------------------------- #
# population-lineage warm starts
# ---------------------------------------------------------------------- #
#: Population axis of each variable-block family in the
#: :class:`VariableIndex` layout — the single N-dependent dimension the
#: column mapping reshapes along.
_N_AXIS = {"pi": 0, "V": 1, "W": 1, "G": 1, "S": 2, "T": 2}


@dataclass(frozen=True)
class _ModelShape:
    """Everything basis mapping needs to know about one model's layout."""

    n_population: int
    n_variables: int
    blocks: "tuple[tuple[tuple, int, tuple[int, ...]], ...]"  # (key, off, shape)
    row_lut: "dict[str, int]"  # exact row label -> stacked row index


def model_shape(system) -> _ModelShape:
    """Layout snapshot of an assembled system (materializes row labels)."""
    labels = list(system.eq_labels) + list(system.ub_labels)
    return _ModelShape(
        n_population=int(system.vi.network.population),
        n_variables=int(system.n_variables),
        blocks=tuple(system.vi.blocks()),
        row_lut={lab: i for i, lab in enumerate(labels)},
    )


def map_basis_snapshot(
    old_shape: _ModelShape,
    old_col: np.ndarray,
    old_row: np.ndarray,
    new_shape: _ModelShape,
) -> "tuple[np.ndarray, np.ndarray]":
    """Map a basis between the models of two adjacent populations.

    Columns: every block has exactly one population axis (``_N_AXIS``), so
    the overlap ``n <= min(N_old, N_new)`` copies with one vectorized
    reshape per block; columns only the new model has start nonbasic at
    their lower bound (``kLower = 0``).  Rows: matched by exact label
    (labels are population-independent strings, so a row present in both
    models matches itself); rows only the new model has start basic
    (``kBasic = 1`` — their slack enters the basis).  The result is alien:
    HiGHS repairs it into a valid starting basis.
    """
    k_lower, k_basic = np.int8(0), np.int8(1)
    col_status = np.full(new_shape.n_variables, k_lower, dtype=np.int8)
    old_blocks = {key: (off, shp) for key, off, shp in old_shape.blocks}
    for key, off, shp in new_shape.blocks:
        hit = old_blocks.get(key)
        if hit is None:  # topology differs — caller keyed the store wrong
            continue
        ooff, oshp = hit
        ax = _N_AXIS[key[0]]
        n_copy = min(shp[ax], oshp[ax])
        sl_new = [slice(None)] * len(shp)
        sl_old = [slice(None)] * len(oshp)
        sl_new[ax] = sl_old[ax] = slice(0, n_copy)
        flat_new = (
            np.arange(np.prod(shp)).reshape(shp)[tuple(sl_new)] + off
        ).ravel()
        flat_old = (
            np.arange(np.prod(oshp)).reshape(oshp)[tuple(sl_old)] + ooff
        ).ravel()
        col_status[flat_new] = old_col[flat_old]

    row_status = np.full(len(new_shape.row_lut), k_basic, dtype=np.int8)
    old_lut = old_shape.row_lut
    for label, i in new_shape.row_lut.items():
        j = old_lut.get(label)
        if j is not None:
            row_status[i] = old_row[j]
    return col_status, row_status


class LPLineageStore:
    """Process-wide basis lineages: ``topology_key -> (metric, sense) -> basis``.

    One entry per topology (LRU-bounded); each ``(metric, sense)`` lineage
    holds the latest optimal basis snapshot together with the model shape
    it belongs to, so the next population's solver can map it.  Lives at
    process scope: inside a sweep worker every point shares the store, so
    serial and parallel sweeps both warm-start within their own process —
    warm starts change iteration counts, never optima, so serial and
    parallel results still agree to LP tolerance.
    """

    def __init__(self, maxsize: int = 8) -> None:
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        # The store is process-wide; registry methods may be driven from
        # threads (e.g. a thread-pooled harness), and a lookup's recency
        # bump racing a store's eviction loop would corrupt the LRU order.
        self._lock = threading.Lock()

    def lookup(
        self, topology_key: str, metric: str, sense: str
    ) -> "tuple[_ModelShape, np.ndarray, np.ndarray] | None":
        """Latest ``(shape, col_status, row_status)`` of a lineage, if any."""
        with self._lock:
            entry = self._entries.get(topology_key)
            if entry is None:
                return None
            self._entries.move_to_end(topology_key)
            return entry.get((metric, sense))

    def store(
        self,
        topology_key: str,
        metric: str,
        sense: str,
        shape: _ModelShape,
        col_status: np.ndarray,
        row_status: np.ndarray,
    ) -> None:
        with self._lock:
            entry = self._entries.get(topology_key)
            if entry is None:
                entry = self._entries[topology_key] = {}
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
            self._entries.move_to_end(topology_key)
            entry[(metric, sense)] = (shape, col_status, row_status)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_lineage_store = LPLineageStore()


def get_lp_lineage_store() -> LPLineageStore:
    """The process-wide lineage store (one per sweep worker process)."""
    return _lineage_store

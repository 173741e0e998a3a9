"""LP front end: min/max of a linear metric over the marginal polytope.

The paper reports interior-point solve times (10 MAP(2) queues, N = 50,
about four minutes in 2008); we solve the same programs through HiGHS on
the persistent warm-started model of :mod:`repro.core.lpbackend`, the one
LP solve path.  The ``benchmarks/test_bench_lp_scaling.py`` harness
reproduces the scalability claim of Section 2.

:func:`solve_lp_core` is the one per-solve call: batched callers
(:class:`repro.runtime.batch.BatchLPSolver`) and the one-shot
:func:`optimize_metric` both go through it, so every solve is traced and
counted the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.constraints import ConstraintSystem
from repro.core.lpbackend import LPRunInfo, PersistentLP, choose_lp_method
from repro.core.objectives import LinearMetric

__all__ = ["LPSolution", "choose_lp_method", "optimize_metric", "solve_lp_core"]


@dataclass(frozen=True)
class LPSolution:
    """Optimal value (and argument) of one LP solve."""

    value: float
    x: np.ndarray
    sense: str  # "min" | "max"
    status: int
    n_iterations: int
    #: HiGHS algorithm that actually produced the optimum — the requested
    #: method, or the retry-ladder step that succeeded.
    method_used: str = ""


def solve_lp_core(
    plp: PersistentLP,
    c: np.ndarray,
    sense: str,
    name: str,
    *,
    warm_basis=None,
    reuse_basis: bool = False,
) -> LPRunInfo:
    """One traced solve of ``c @ x`` on a persistent model.

    Opens the ``lp.solve`` span and records the ``lp.solves``,
    ``lp.iterations`` (simplex + IPM + crossover), ``lp.warm_start``,
    ``lp.basis_reuse`` and ``lp.fallbacks`` counters around
    :meth:`PersistentLP.solve`, which owns the retry ladder.  ``name``
    labels the span with the metric being optimized.
    """
    with obs.get_telemetry().span("lp.solve", metric=name, sense=sense) as span:
        info = plp.solve(c, sense, warm_basis=warm_basis, reuse_basis=reuse_basis)
        span.count("lp.solves")
        span.count("lp.iterations", info.n_iterations)
        if info.warm_started:
            span.count("lp.warm_start" if warm_basis is not None else "lp.basis_reuse")
        if info.n_fallbacks:
            span.count("lp.fallbacks")
            span.set("method_used", info.method_used)
    return info


def optimize_metric(
    system: ConstraintSystem,
    metric: LinearMetric,
    sense: str,
    method: str = "auto",
) -> LPSolution:
    """Optimize ``metric`` over the constraint polytope.

    A one-shot API: it builds a :class:`PersistentLP`, solves once and
    discards the model.  Batched callers should use
    :class:`repro.runtime.batch.BatchLPSolver`, which keeps the model alive
    across solves.

    Parameters
    ----------
    system:
        Assembled exact-constraint system.
    metric:
        Linear objective.
    sense:
        ``"min"`` or ``"max"``.
    method:
        HiGHS algorithm: ``"highs"`` (dual simplex), ``"highs-ipm"``, or
        ``"auto"``, which follows
        :func:`~repro.core.lpbackend.choose_lp_method`: dual simplex for
        small systems, interior point past ``_IPM_THRESHOLD`` variables
        (mirroring the paper's interior-point choice for its large
        instances).

    Raises
    ------
    SolverError
        If the LP is infeasible/unbounded — with exact constraints this
        indicates a modeling bug, never a property of the network, so it is
        surfaced loudly rather than returned as NaN.
    """
    info = solve_lp_core(
        PersistentLP(system, method=method),
        metric.dense(system.n_variables),
        sense,
        metric.name,
    )
    return LPSolution(
        value=float(info.value + metric.constant),
        x=info.x,
        sense=sense,
        status=0,
        n_iterations=info.n_iterations,
        method_used=info.method_used,
    )

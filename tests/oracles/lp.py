"""Stateless LP oracle: one direct ``scipy.optimize.linprog`` call per bound.

The package solves every LP on one persistent HiGHS model
(:mod:`repro.core.lpbackend`) that keeps its basis between objectives and
across sweep populations.  This oracle solves the same program the plain
way — a fresh ``linprog`` per objective, nothing kept — so warm starts,
basis reuse and cost-vector swaps can be checked against an independent
solve of the identical :class:`~repro.core.constraints.ConstraintSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.core import (
    Interval,
    build_constraints,
    queue_length_metric,
    system_throughput_metric,
    throughput_metric,
    utilization_metric,
)
from repro.core.lpbackend import choose_lp_method
from repro.runtime.batch import expand_metric_specs

_STATION_BUILDERS = {
    "utilization": utilization_metric,
    "throughput": throughput_metric,
    "queue_length": queue_length_metric,
}


@dataclass(frozen=True)
class LinprogOptimum:
    """Optimal value (metric constant included) of one ``linprog`` solve."""

    value: float
    x: np.ndarray
    n_iterations: int
    method: str


def linprog_optimum(system, metric, sense: str, method: str = "auto") -> LinprogOptimum:
    """Min or max of ``metric`` over ``system`` by one ``linprog`` call.

    ``method="auto"`` applies the package's
    :func:`~repro.core.lpbackend.choose_lp_method`, so the oracle runs the
    same HiGHS algorithm as the solver under test.
    """
    if method == "auto":
        method = choose_lp_method(system.n_variables)
    c = metric.dense(system.n_variables)
    sign = 1.0 if sense == "min" else -1.0
    res = linprog(
        sign * c,
        A_eq=system.A_eq if system.n_equalities else None,
        b_eq=system.b_eq if system.n_equalities else None,
        A_ub=system.A_ub if system.n_inequalities else None,
        b_ub=system.b_ub if system.n_inequalities else None,
        bounds=np.column_stack([system.lb, system.ub]),
        method=method,
    )
    if not res.success:
        raise AssertionError(
            f"linprog oracle: {sense} of {metric.name} failed: {res.message}"
        )
    return LinprogOptimum(
        value=float(sign * res.fun + metric.constant),
        x=res.x,
        n_iterations=int(res.nit),
        method=method,
    )


def spec_metric(network, vi, spec: str, reference: int = 0):
    """The linear metric a canonical spec (``"throughput[0]"``, ...) names."""
    if spec == "system_throughput":
        return system_throughput_metric(network, vi, reference)
    name, _, rest = spec.partition("[")
    return _STATION_BUILDERS[name](network, vi, int(rest[:-1]))


def linprog_bounds(
    network,
    specs="standard",
    *,
    system=None,
    triples: bool | None = None,
    reference: int = 0,
    method: str = "auto",
) -> dict[str, Interval]:
    """``canonical spec -> [min, max]``, two ``linprog`` calls per metric.

    Takes the same metric specs as
    :meth:`repro.runtime.batch.BatchLPSolver.bound_specs` and answers in
    the same shape; ``response_time`` is derived by Little's law.
    """
    if system is None:
        system = build_constraints(network, triples=triples)
    expanded = expand_metric_specs(specs, network.n_stations)
    out: dict[str, Interval] = {}
    for spec in expanded:
        if spec == "response_time":
            continue
        metric = spec_metric(network, system.vi, spec, reference)
        lo = linprog_optimum(system, metric, "min", method).value
        hi = linprog_optimum(system, metric, "max", method).value
        out[spec] = Interval(lower=min(lo, hi), upper=max(lo, hi))
    if "response_time" in expanded:
        x = out["system_throughput"]
        N = network.population
        out["response_time"] = Interval(lower=N / x.upper, upper=N / x.lower)
    return out

"""Population sweeps on the persistent LP backend: warm yet exact.

The cross-N basis lineage (see :mod:`repro.core.lpbackend`) makes every
sweep point after the first start from the previous point's mapped
optimal basis.  Warm starts change iteration counts, never optima, so a
warm sweep must agree with a cold (lineage-disabled) one and with the
stateless ``linprog`` oracle to LP tolerance — serially and across worker
processes.
"""

import numpy as np
import pytest

from oracles.lp import linprog_bounds
from repro.core.lpbackend import get_lp_lineage_store
from repro.maps import exponential, fit_map2
from repro.network import ClosedNetwork, queue
from repro.runtime import SolverRegistry
from repro.runtime.sweep import SweepRunner

POPULATIONS = (3, 4, 5, 6)
METRICS = ("throughput[0]", "queue_length[1]", "system_throughput")


@pytest.fixture()
def base_net():
    get_lp_lineage_store().clear()
    yield ClosedNetwork(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        POPULATIONS[0],
    )
    get_lp_lineage_store().clear()


def _sweep(base_net, workers: int) -> list:
    runner = SweepRunner(
        registry=SolverRegistry(cache=None), workers=workers, cache_dir=None
    )
    return runner.population_sweep(
        base_net, POPULATIONS, "lp", metrics=METRICS
    )


def _assert_close(warm_results, cold_results, tol=1e-9):
    for warm, cold in zip(warm_results, cold_results):
        for k, field in ((0, "throughput"), (1, "queue_length")):
            w, c = getattr(warm, field)[k], getattr(cold, field)[k]
            assert abs(w.lower - c.lower) <= tol, (field, k, w, c)
            assert abs(w.upper - c.upper) <= tol, (field, k, w, c)
        assert abs(warm.system_throughput.lower - cold.system_throughput.lower) <= tol
        assert abs(warm.system_throughput.upper - cold.system_throughput.upper) <= tol


def test_serial_sweep_warm_starts_and_agrees(base_net):
    warm = _sweep(base_net, workers=1)
    # every point past the first warm-started from the lineage
    assert all(r.extra["lp_warm_starts"] >= 1 for r in warm[1:])
    assert all(r.extra["backend"] == "highs" for r in warm)

    for N, result in zip(POPULATIONS, warm):
        oracle = linprog_bounds(base_net.with_population(N), METRICS)
        for got, want in (
            (result.throughput_interval(0), oracle["throughput[0]"]),
            (result.queue_length_interval(1), oracle["queue_length[1]"]),
            (result.system_throughput, oracle["system_throughput"]),
        ):
            assert abs(got.lower - want.lower) <= 1e-9, (N, got, want)
            assert abs(got.upper - want.upper) <= 1e-9, (N, got, want)


def test_parallel_sweep_agrees_with_serial(base_net):
    serial = _sweep(base_net, workers=1)
    get_lp_lineage_store().clear()
    parallel = _sweep(base_net, workers=2)
    _assert_close(parallel, serial)


def test_lineage_shared_across_registry_solves(base_net):
    """Registry solves (not just one BatchLPSolver) chain the lineage."""
    registry = SolverRegistry(cache=None)
    first = registry.solve(base_net, "lp", metrics=METRICS)
    assert first.extra["lp_warm_starts"] == 0
    second = registry.solve(base_net.with_population(4), "lp", metrics=METRICS)
    assert second.extra["lp_warm_starts"] >= 1


# ---------------------------------------------------------------------- #
# catalog-wide agreement: every closed scenario vs the linprog oracle, 1e-9
# ---------------------------------------------------------------------- #
from repro.scenarios import get_scenario, get_scenario_registry  # noqa: E402

CLOSED_SCENARIOS = tuple(
    name
    for name in get_scenario_registry().names()
    if get_scenario(name).network(population=4).kind == "closed"
)

#: Small enough to keep the whole parametrized sweep inside seconds, large
#: enough that the polytope has interior (non-degenerate bound pairs).
CATALOG_N = 4


@pytest.mark.parametrize("name", CLOSED_SCENARIOS)
def test_catalog_backends_agree(name):
    """The persistent HiGHS path and the stateless ``linprog`` oracle
    answer every catalog scenario identically to 1e-9."""
    get_lp_lineage_store().clear()
    net = get_scenario(name).network(population=CATALOG_N)
    registry = SolverRegistry(cache=None)
    specs = ("throughput[0]", "queue_length[0]", "system_throughput")
    # Pair tier: the triple tier multiplies variables ~M-fold (minutes on
    # the 6-station ring) without exercising any solver-specific code.
    res_h = registry.solve(net, "lp", metrics=specs, triples=False)
    oracle = linprog_bounds(net, specs, triples=False)
    assert res_h.extra["backend"] == "highs"
    for a, b in (
        (res_h.throughput_interval(0), oracle["throughput[0]"]),
        (res_h.queue_length_interval(0), oracle["queue_length[0]"]),
        (res_h.system_throughput, oracle["system_throughput"]),
    ):
        assert abs(a.lower - b.lower) <= 1e-9, (name, a, b)
        assert abs(a.upper - b.upper) <= 1e-9, (name, a, b)

"""BatchLPSolver: one assembly, many bounds; metric-spec expansion."""

import numpy as np
import pytest

from oracles.lp import linprog_bounds
from repro.core import solve_bounds
from repro.core.lpbackend import get_lp_lineage_store
from repro.maps import exponential, fit_map2
from repro.network import ClosedNetwork, queue
from repro.runtime.batch import BatchLPSolver, expand_metric_specs


@pytest.fixture(scope="module")
def net():
    return ClosedNetwork(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        4,
    )


class TestSpecExpansion:
    def test_standard_expands_all(self):
        specs = expand_metric_specs("standard", 2)
        assert "utilization[0]" in specs and "queue_length[1]" in specs
        assert "system_throughput" in specs and "response_time" in specs
        assert len(specs) == 8

    def test_bare_station_metric_expands_per_station(self):
        assert expand_metric_specs(("utilization",), 3) == [
            "utilization[0]", "utilization[1]", "utilization[2]",
        ]

    def test_response_time_pulls_in_system_throughput(self):
        specs = expand_metric_specs(("response_time",), 2)
        assert specs == ["response_time", "system_throughput"]

    def test_duplicates_collapse(self):
        specs = expand_metric_specs(("utilization[1]", "utilization[1]"), 2)
        assert specs == ["utilization[1]"]

    def test_rejects_unknown_and_out_of_range(self):
        with pytest.raises(ValueError):
            expand_metric_specs(("entropy",), 2)
        with pytest.raises(ValueError):
            expand_metric_specs(("utilization[9]",), 2)


class TestBatchBounds:
    def test_standard_bounds_match_unbatched(self, net):
        batched = BatchLPSolver(net).standard_bounds()
        direct = solve_bounds(net)
        for k in range(net.n_stations):
            for field in ("utilization", "throughput", "queue_length"):
                b = getattr(batched, field)[k]
                d = getattr(direct, field)[k]
                assert b.lower == pytest.approx(d.lower, abs=1e-7)
                assert b.upper == pytest.approx(d.upper, abs=1e-7)
        assert batched.response_time.lower == pytest.approx(
            direct.response_time.lower, abs=1e-7
        )

    def test_single_assembly_shared_across_solves(self, net):
        solver = BatchLPSolver(net)
        solver.bound_specs("standard")
        # 3 station metrics * 2 stations + system throughput = 7 pairs
        assert solver.n_solves == 14
        assert solver.build_time_s > 0
        assert solver.solve_time_s > 0

    def test_subset_solves_fewer_lps(self, net):
        solver = BatchLPSolver(net)
        out = solver.bound_specs(("response_time",))
        assert solver.n_solves == 2  # one min/max pair for X only
        assert set(out) == {"system_throughput", "response_time"}
        N = net.population
        assert out["response_time"].lower == pytest.approx(
            N / out["system_throughput"].upper
        )

    def test_triples_flag_tightens(self, net):
        wide = BatchLPSolver(net, triples=False).bound_specs(("system_throughput",))
        # two-station networks have no triples; flag must still be accepted
        tight = BatchLPSolver(net, triples=None).bound_specs(("system_throughput",))
        assert wide["system_throughput"].lower <= tight["system_throughput"].lower + 1e-9


class TestPersistentBackend:
    @pytest.fixture(autouse=True)
    def _clean_lineage(self):
        get_lp_lineage_store().clear()
        yield
        get_lp_lineage_store().clear()

    def test_standard_bounds_match_linprog_oracle(self, net):
        got = BatchLPSolver(net).bound_specs("standard")
        want = linprog_bounds(net, "standard")
        assert got.keys() == want.keys()
        for spec, iv in want.items():
            assert got[spec].lower == pytest.approx(iv.lower, abs=1e-9), spec
            assert got[spec].upper == pytest.approx(iv.upper, abs=1e-9), spec

    def test_pair_reuse_counted(self, net):
        solver = BatchLPSolver(net)
        solver.bound_specs(("system_throughput", "utilization[0]"))
        assert solver.n_solves == 4
        # each metric's max solve rides the basis its min solve left
        assert solver.n_basis_reuse == 2
        assert solver.n_warm_starts == 0  # nothing in the lineage yet
        assert solver.n_iterations > 0

    def test_lineage_warm_starts_next_population(self, net):
        first = BatchLPSolver(net)
        first.bound_specs(("system_throughput",))
        assert len(get_lp_lineage_store()) == 1

        second = BatchLPSolver(net.with_population(5))
        out = second.bound_specs(("system_throughput",))
        assert second.n_warm_starts >= 1
        cold = linprog_bounds(net.with_population(5), ("system_throughput",))
        assert out["system_throughput"].lower == pytest.approx(
            cold["system_throughput"].lower, abs=1e-9
        )
        assert out["system_throughput"].upper == pytest.approx(
            cold["system_throughput"].upper, abs=1e-9
        )

    def test_warm_start_opt_out(self, net):
        BatchLPSolver(net).bound_specs(("system_throughput",))
        opted_out = BatchLPSolver(
            net.with_population(5), warm_start=False
        )
        opted_out.bound_specs(("system_throughput",))
        assert opted_out.n_warm_starts == 0

    def test_explicit_ipm_skips_lineage(self, net):
        solver = BatchLPSolver(net, method="highs-ipm")
        solver.bound_specs(("system_throughput",))
        assert solver.method == "highs-ipm"
        # IPM ignores bases: no lineage entry may be written
        assert len(get_lp_lineage_store()) == 0

"""Tests for the LP front end: method selection, fallbacks, metric algebra."""

import numpy as np
import pytest

from oracles.lp import linprog_optimum
from repro.core import build_constraints, throughput_metric, utilization_metric
from repro.core.lp import optimize_metric
from repro.core.lpbackend import _IPM_THRESHOLD
from repro.core.objectives import LinearMetric
from repro.core.variables import VariableIndex
from repro.maps import exponential, fit_map2
from repro.network import ClosedNetwork, queue


@pytest.fixture(scope="module")
def system():
    routing = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = ClosedNetwork(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        routing,
        5,
    )
    vi = VariableIndex(net)
    return net, vi, build_constraints(net, vi)


class TestLinearMetric:
    def test_dense_accumulates_duplicates(self):
        m = LinearMetric("t", cols=np.array([0, 0, 2]), vals=np.array([1.0, 2.0, 5.0]))
        dense = m.dense(4)
        assert dense[0] == 3.0 and dense[2] == 5.0 and dense[1] == 0.0

    def test_evaluate_with_constant(self):
        m = LinearMetric(
            "t", cols=np.array([1]), vals=np.array([2.0]), constant=0.5
        )
        assert m.evaluate(np.array([0.0, 3.0])) == pytest.approx(6.5)


class TestOptimizeMetric:
    def test_min_below_max(self, system):
        net, vi, sys_c = system
        m = throughput_metric(net, vi, 0)
        lo = optimize_metric(sys_c, m, "min")
        hi = optimize_metric(sys_c, m, "max")
        assert lo.value <= hi.value + 1e-9

    def test_solution_vector_feasible(self, system):
        net, vi, sys_c = system
        m = utilization_metric(net, vi, 0)
        sol = optimize_metric(sys_c, m, "min")
        eq_res, ub_res = sys_c.residuals(sol.x)
        assert np.abs(eq_res).max() < 1e-7
        assert ub_res.max() < 1e-7

    def test_explicit_methods_agree(self, system):
        net, vi, sys_c = system
        m = throughput_metric(net, vi, 0)
        simplex = optimize_metric(sys_c, m, "min", method="highs")
        ipm = optimize_metric(sys_c, m, "min", method="highs-ipm")
        assert simplex.value == pytest.approx(ipm.value, abs=1e-6)

    def test_auto_selects_simplex_for_small(self, system):
        net, vi, sys_c = system
        assert sys_c.n_variables <= _IPM_THRESHOLD
        m = throughput_metric(net, vi, 0)
        sol = optimize_metric(sys_c, m, "min", method="auto")
        assert sol.status == 0
        assert sol.method_used == "highs"

    def test_method_used_surfaced(self, system):
        net, vi, sys_c = system
        m = throughput_metric(net, vi, 0)
        for method in ("highs", "highs-ipm"):
            sol = optimize_metric(sys_c, m, "min", method=method)
            assert sol.method_used == method
            assert sol.n_iterations > 0

    def test_backends_agree(self, system):
        """The persistent solve agrees with the stateless linprog oracle."""
        net, vi, sys_c = system
        m = throughput_metric(net, vi, 0)
        for sense in ("min", "max"):
            a = optimize_metric(sys_c, m, sense)
            b = linprog_optimum(sys_c, m, sense)
            assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_unknown_method_rejected(self, system):
        net, vi, sys_c = system
        with pytest.raises(ValueError, match="unknown LP method"):
            optimize_metric(
                sys_c, throughput_metric(net, vi, 0), "min", method="interior-point"
            )

    def test_rejects_bad_sense(self, system):
        net, vi, sys_c = system
        with pytest.raises(ValueError):
            optimize_metric(sys_c, throughput_metric(net, vi, 0), "upward")


class TestVariableDescribe:
    def test_triple_blocks_describable(self):
        routing = np.array(
            [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        net = ClosedNetwork(
            [
                queue("a", exponential(1.0)),
                queue("b", exponential(2.0)),
                queue("c", fit_map2(1.0, 4.0, 0.3)),
            ],
            routing,
            3,
        )
        vi = VariableIndex(net)
        assert vi.triples
        label = vi.describe(int(vi.S(0, 1, 2, 0, 0, 1, 1)))
        assert label == "S[0,1,2](0,0,1,1)"
        label = vi.describe(int(vi.T(2, 0, 1, 1, 0, 2, 0)))
        assert label == "T[2,0,1](1,0,2,0)"

    def test_describe_out_of_range(self):
        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = ClosedNetwork(
            [queue("a", exponential(1.0)), queue("b", exponential(2.0))],
            routing,
            2,
        )
        vi = VariableIndex(net)
        with pytest.raises(IndexError):
            vi.describe(vi.size + 10)

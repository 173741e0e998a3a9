"""Persistent HiGHS backend: discovery, warm starts, basis mapping, ladder."""

import numpy as np
import pytest

from oracles.lp import linprog_optimum
from repro.core import build_constraints, queue_length_metric, throughput_metric
from repro.core.lpbackend import (
    _IPM_THRESHOLD,
    LPLineageStore,
    PersistentLP,
    choose_lp_method,
    get_lp_lineage_store,
    highs_impl,
    map_basis_snapshot,
    model_shape,
    resolve_backend,
)
from repro.core.variables import VariableIndex
from repro.maps import exponential, fit_map2
from repro.network import ClosedNetwork, queue
from repro.utils.errors import SolverError


def two_station(N: int = 5):
    net = ClosedNetwork(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        N,
    )
    vi = VariableIndex(net)
    return net, vi, build_constraints(net, vi)


@pytest.fixture(scope="module")
def system():
    return two_station()


class TestDiscovery:
    def test_impl_is_named_when_available(self):
        assert highs_impl() in ("highspy", "scipy-vendored")

    def test_auto_prefers_highs(self):
        assert resolve_backend("auto") == "highs"
        assert resolve_backend("highs") == "highs"
        assert resolve_backend() == "highs"

    def test_scipy_request_rejected(self):
        # the stateless backend is gone; asking for it is an error
        with pytest.raises(ValueError, match="'auto' or 'highs'"):
            resolve_backend("scipy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("gurobi")

    def test_forced_highs_raises_without_binding(self, monkeypatch):
        import repro.core.lpbackend as mod

        monkeypatch.setattr(mod, "_HIGHS_MOD", None)
        for request in ("highs", "auto"):
            with pytest.raises(SolverError, match=r"scipy>=1\.15.*highspy"):
                mod.resolve_backend(request)

    def test_model_construction_checks_the_binding(self, system, monkeypatch):
        import repro.core.lpbackend as mod

        _, _, sys_c = system
        monkeypatch.setattr(mod, "_HIGHS_MOD", None)
        with pytest.raises(SolverError, match="no HiGHS binding"):
            PersistentLP(sys_c)


class TestChooseMethod:
    def test_threshold_boundary(self):
        assert choose_lp_method(_IPM_THRESHOLD) == "highs"
        assert choose_lp_method(_IPM_THRESHOLD + 1) == "highs-ipm"


class TestPersistentSolves:
    def test_matches_stateless_scipy(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c)
        for metric in (throughput_metric(net, vi, 0),
                       queue_length_metric(net, vi, 1)):
            c = metric.dense(sys_c.n_variables)
            for sense in ("min", "max"):
                info = plp.solve(c.copy(), sense)
                ref = linprog_optimum(sys_c, metric, sense)
                assert info.value + metric.constant == pytest.approx(
                    ref.value, abs=1e-9
                )

    def test_solution_vector_feasible(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c)
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        info = plp.solve(c, "min")
        eq_res, ub_res = sys_c.residuals(info.x)
        assert np.abs(eq_res).max() < 1e-7
        assert ub_res.max() < 1e-7

    def test_pair_reuse_marks_warm_and_agrees(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c)
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        lo = plp.solve(c.copy(), "min")
        hi = plp.solve(c.copy(), "max", reuse_basis=True)
        assert not lo.warm_started and hi.warm_started
        cold_hi = PersistentLP(sys_c).solve(c.copy(), "max")
        assert hi.value == pytest.approx(cold_hi.value, abs=1e-9)
        assert lo.value <= hi.value + 1e-9

    def test_explicit_ipm_never_warm(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c, method="highs-ipm")
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        plp.solve(c.copy(), "min")
        info = plp.solve(c.copy(), "max", reuse_basis=True)
        # IPM ignores start bases; the request must not be misreported
        assert not info.warm_started
        assert info.method_used == "highs-ipm"

    def test_rejects_bad_inputs(self, system):
        _, _, sys_c = system
        with pytest.raises(ValueError):
            PersistentLP(sys_c, method="simplex-dual")
        with pytest.raises(ValueError):
            PersistentLP(sys_c).solve(None, "upward")

    def test_retry_ladder_reports_fallbacks(self, system, monkeypatch):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c, method="highs")
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        real_run_ok = PersistentLP._run_ok
        calls = {"n": 0}

        def flaky_run_ok(self):
            calls["n"] += 1
            if calls["n"] == 1:  # first attempt "fails"; ladder takes over
                self._h.run()
                return False
            return real_run_ok(self)

        monkeypatch.setattr(PersistentLP, "_run_ok", flaky_run_ok)
        info = plp.solve(c, "min")
        assert info.n_fallbacks == 1
        assert info.method_used == "highs-ipm"  # the alternate algorithm
        ref = linprog_optimum(sys_c, throughput_metric(net, vi, 0), "min")
        assert info.value == pytest.approx(ref.value, abs=1e-9)

    def test_exhausted_ladder_raises(self, system, monkeypatch):
        _, _, sys_c = system
        plp = PersistentLP(sys_c)
        monkeypatch.setattr(PersistentLP, "_run_ok", lambda self: False)
        with pytest.raises(SolverError, match="after 2 retries"):
            plp.solve(np.zeros(sys_c.n_variables), "min")


class TestBasisMapping:
    def test_snapshot_roundtrip_identity(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c)
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        cold = plp.solve(c.copy(), "min")
        snap = plp.basis_snapshot()
        assert snap is not None
        col, row = snap
        assert len(col) == sys_c.n_variables

        # identity map (same shape both sides) must preserve the basis
        shape = model_shape(sys_c)
        mcol, mrow = map_basis_snapshot(shape, col, row, shape)
        np.testing.assert_array_equal(mcol, col)
        np.testing.assert_array_equal(mrow, row)

        # restarting from one's own optimal basis converges immediately
        fresh = PersistentLP(sys_c)
        warm = fresh.solve(
            c.copy(), "min", warm_basis=fresh.make_basis(mcol, mrow)
        )
        assert warm.warm_started
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert warm.n_iterations <= cold.n_iterations

    def test_cross_population_warm_start_agrees(self):
        net5, vi5, sys5 = two_station(5)
        net6, vi6, sys6 = two_station(6)
        plp5 = PersistentLP(sys5)
        plp5.solve(
            throughput_metric(net5, vi5, 0).dense(sys5.n_variables), "min"
        )
        col, row = plp5.basis_snapshot()
        mcol, mrow = map_basis_snapshot(
            model_shape(sys5), col, row, model_shape(sys6)
        )
        assert len(mcol) == sys6.n_variables

        plp6 = PersistentLP(sys6)
        c6 = throughput_metric(net6, vi6, 0).dense(sys6.n_variables)
        warm = plp6.solve(c6.copy(), "min", warm_basis=plp6.make_basis(mcol, mrow))
        cold = PersistentLP(sys6).solve(c6.copy(), "min")
        assert warm.warm_started
        assert warm.value == pytest.approx(cold.value, abs=1e-9)


class TestLineageStore:
    def test_store_lookup_roundtrip(self, system):
        _, _, sys_c = system
        store = LPLineageStore()
        shape = model_shape(sys_c)
        col = np.zeros(shape.n_variables, dtype=np.int8)
        row = np.ones(len(shape.row_lut), dtype=np.int8)
        assert store.lookup("topo", "throughput[0]", "min") is None
        store.store("topo", "throughput[0]", "min", shape, col, row)
        hit = store.lookup("topo", "throughput[0]", "min")
        assert hit is not None and hit[0] is shape
        assert store.lookup("topo", "throughput[0]", "max") is None

    def test_lru_evicts_oldest_topology(self, system):
        _, _, sys_c = system
        store = LPLineageStore(maxsize=2)
        shape = model_shape(sys_c)
        col = np.zeros(shape.n_variables, dtype=np.int8)
        row = np.ones(len(shape.row_lut), dtype=np.int8)
        for key in ("t1", "t2", "t3"):
            store.store(key, "m", "min", shape, col, row)
        assert len(store) == 2
        assert store.lookup("t1", "m", "min") is None
        assert store.lookup("t3", "m", "min") is not None

    def test_process_store_is_shared(self):
        assert get_lp_lineage_store() is get_lp_lineage_store()

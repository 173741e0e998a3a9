"""LPLineageStore: LRU bounds, downward basis mapping, thread safety."""

import threading

import numpy as np

from repro.core.lpbackend import LPLineageStore, get_lp_lineage_store
from repro.maps import exponential, fit_map2
from repro.network import ClosedNetwork, queue
from repro.runtime import SolverRegistry

METRICS = ("throughput[0]", "queue_length[1]", "system_throughput")


def _fake_basis(tag: int):
    """A well-formed (shape, col, row) payload — the store never inspects
    the shape, so a sentinel object keyed by ``tag`` is enough."""
    return (
        f"shape-{tag}",
        np.full(3, tag % 100, dtype=np.int8),
        np.full(2, tag % 100, dtype=np.int8),
    )


class TestLRUEviction:
    def test_bounded_across_topology_keys(self):
        store = LPLineageStore(maxsize=3)
        for i in range(7):
            store.store(f"topo-{i}", "m", "min", *_fake_basis(i))
        assert len(store) == 3
        # Oldest topologies fell off; the newest three survive.
        assert store.lookup("topo-0", "m", "min") is None
        assert store.lookup("topo-3", "m", "min") is None
        for i in (4, 5, 6):
            hit = store.lookup(f"topo-{i}", "m", "min")
            assert hit is not None and hit[0] == f"shape-{i}"

    def test_lookup_refreshes_recency(self):
        store = LPLineageStore(maxsize=2)
        store.store("a", "m", "min", *_fake_basis(1))
        store.store("b", "m", "min", *_fake_basis(2))
        store.lookup("a", "m", "min")  # bump "a" — "b" is now the LRU
        store.store("c", "m", "min", *_fake_basis(3))
        assert store.lookup("a", "m", "min") is not None
        assert store.lookup("b", "m", "min") is None
        assert store.lookup("c", "m", "min") is not None

    def test_lineages_within_one_topology_do_not_evict(self):
        store = LPLineageStore(maxsize=2)
        for i, metric in enumerate(("x", "y", "z", "w")):
            for sense in ("min", "max"):
                store.store("topo", metric, sense, *_fake_basis(i))
        assert len(store) == 1
        for metric in ("x", "y", "z", "w"):
            for sense in ("min", "max"):
                assert store.lookup("topo", metric, sense) is not None

    def test_store_overwrites_latest_basis(self):
        store = LPLineageStore()
        store.store("topo", "m", "min", *_fake_basis(1))
        store.store("topo", "m", "min", *_fake_basis(2))
        hit = store.lookup("topo", "m", "min")
        assert hit[0] == "shape-2"
        assert np.all(hit[1] == 2)

    def test_clear_empties(self):
        store = LPLineageStore()
        store.store("topo", "m", "min", *_fake_basis(1))
        store.clear()
        assert len(store) == 0
        assert store.lookup("topo", "m", "min") is None


class TestDownwardPopulationMapping:
    """The block mapping truncates (not just extends) the population axis,
    so a sweep that *decreases* N must warm-start correctly too."""

    def _net(self, population):
        return ClosedNetwork(
            [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            population,
        )

    def test_decreasing_sweep_agrees_with_cold(self):
        lineage = get_lp_lineage_store()
        lineage.clear()
        try:
            registry = SolverRegistry(cache=None)
            big = registry.solve(self._net(20), "lp", metrics=METRICS)
            assert big.extra["lp_warm_starts"] == 0
            warm = registry.solve(self._net(10), "lp", metrics=METRICS)
            # The N = 10 solve started from the truncated N = 20 basis...
            assert warm.extra["lp_warm_starts"] >= 1
        finally:
            lineage.clear()
        # ...and still lands on the cold optimum to LP tolerance.
        cold = SolverRegistry(cache=None).solve(self._net(10), "lp", metrics=METRICS)
        for w, c in (
            (warm.throughput_interval(0), cold.throughput_interval(0)),
            (warm.queue_length_interval(1), cold.queue_length_interval(1)),
            (warm.system_throughput, cold.system_throughput),
        ):
            assert abs(w.lower - c.lower) <= 1e-9
            assert abs(w.upper - c.upper) <= 1e-9


class TestThreadSafety:
    def test_concurrent_mixed_traffic_keeps_invariants(self):
        """Hammer one store from many threads: no exceptions escape, the
        LRU bound holds throughout, and every lookup is well-formed."""
        store = LPLineageStore(maxsize=4)
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                barrier.wait()
                for i in range(300):
                    topo = f"topo-{rng.integers(0, 10)}"
                    op = rng.integers(0, 10)
                    if op < 5:
                        store.store(topo, "m", "min", *_fake_basis(i))
                    elif op < 9:
                        hit = store.lookup(topo, "m", "min")
                        if hit is not None:
                            shape, col, row = hit
                            assert str(shape).startswith("shape-")
                            assert col.dtype == np.int8
                    else:
                        store.clear()
                    assert len(store) <= 4
            except BaseException as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(store) <= 4

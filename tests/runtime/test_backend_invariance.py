"""Backend is provenance, not identity: dense and operator runs share
one cache entry.

The ``backend`` option changes *how* the exact/transient answer is
computed (assembled generator vs matrix-free Kronecker operator), never
*what* it is.  The registry therefore excludes it from the solve
fingerprint and ``to_dict()`` strips it from the cached payload — so a
dense solve warms the cache for an operator request and vice versa, and
replayed payloads are byte-identical regardless of which backend filled
the entry.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import ResultCache, SolveResult, SolverRegistry
from repro.workloads.ring import ring_model
from repro.workloads.tandem import tandem_model

TIMES = (0.0, 1.0, 5.0, 20.0)


@pytest.fixture()
def registry(tmp_path):
    return SolverRegistry(cache=ResultCache(directory=tmp_path))


@pytest.fixture(scope="module")
def tandem():
    return tandem_model(4)


def payload_bytes(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode()


class TestFingerprintInvariance:
    @pytest.mark.parametrize("method,opts", [
        ("exact", {}),
        ("transient", {"times": TIMES, "pi0": "loaded:q1"}),
    ])
    def test_same_fingerprint_across_backends(
        self, tmp_path, tandem, method, opts
    ):
        # fresh registries (cold caches) so both solves actually compute
        fps = {}
        for backend in ("dense", "operator", "auto"):
            reg = SolverRegistry(
                cache=ResultCache(directory=tmp_path / backend)
            )
            res = reg.solve(tandem, method, backend=backend, **opts)
            assert res.extra["cache_hit"] is False
            fps[backend] = res.fingerprint
        assert fps["dense"] == fps["operator"] == fps["auto"]

    def test_omitted_backend_hits_same_entry(self, registry, tandem):
        first = registry.solve(tandem, "exact", backend="dense")
        replay = registry.solve(tandem, "exact")  # default backend="auto"
        assert replay.extra["cache_hit"] is True
        assert replay.fingerprint == first.fingerprint


class TestCacheSharing:
    def test_operator_replays_dense_exact_entry(self, registry, tandem):
        dense = registry.solve(tandem, "exact", backend="dense")
        assert dense.extra["cache_hit"] is False
        op = registry.solve(tandem, "exact", backend="operator")
        assert op.extra["cache_hit"] is True
        assert payload_bytes(op) == payload_bytes(dense)

    def test_dense_replays_operator_transient_entry(self, registry, tandem):
        op = registry.solve(
            tandem, "transient", times=TIMES, pi0="loaded:q1",
            backend="operator",
        )
        assert op.extra["cache_hit"] is False
        dense = registry.solve(
            tandem, "transient", times=TIMES, pi0="loaded:q1",
            backend="dense",
        )
        assert dense.extra["cache_hit"] is True
        assert payload_bytes(dense) == payload_bytes(op)

    def test_disk_tier_replay_across_registries(self, tmp_path, tandem):
        SolverRegistry(cache=ResultCache(directory=tmp_path)).solve(
            tandem, "exact", backend="operator"
        )
        fresh = SolverRegistry(cache=ResultCache(directory=tmp_path))
        replay = fresh.solve(tandem, "exact", backend="dense")
        assert replay.extra["cache_hit"] is True
        assert replay.extra["cache_tier"] == "disk"


class TestProvenance:
    def test_backend_stamped_on_fresh_solves(self, registry, tandem):
        res = registry.solve(tandem, "exact", backend="operator")
        assert res.extra["backend"] == "operator"
        res_t = registry.solve(
            tandem, "transient", times=TIMES, pi0="loaded:q1",
            backend="dense",
        )
        assert res_t.extra["backend"] == "dense"

    def test_auto_records_resolved_backend(self, registry):
        net = ring_model(2, n_stations=2)
        res = registry.solve(net, "exact", backend="auto", max_states=10)
        assert res.extra["backend"] == "operator"

    def test_backend_stripped_from_payload(self, registry, tandem):
        res = registry.solve(tandem, "exact", backend="operator")
        payload = res.to_dict()
        assert "backend" not in payload.get("extra", {})
        assert "cache_hit" not in payload.get("extra", {})


class TestLPProvenance:
    """The LP method has one engine, the persistent HiGHS model: it is
    stamped as ``extra["backend"] == "highs"`` and, like the CTMC backend,
    kept out of cached payloads, so LP cache entries written before the
    stateless backend was retired still replay."""

    METRICS = ("throughput[0]", "system_throughput")
    #: A ``tandem_model(4)`` LP entry exactly as the two-backend registry
    #: wrote it (``backend`` excluded from the key and the payload).
    PARENT_ENTRY = (
        Path(__file__).parent
        / "data"
        / "lp_cache"
        / "8c1b3608be95fc9a9c6443d0868cbb264ea6f97b003297c777b70c9055613c07.json"
    )

    def test_backend_stamped_and_stripped(self, registry, tandem):
        res = registry.solve(tandem, "lp", metrics=self.METRICS)
        assert res.extra["backend"] == "highs"
        assert "backend" not in res.to_dict().get("extra", {})

    def test_backend_option_rejected(self, registry, tandem):
        with pytest.raises(TypeError, match="backend"):
            registry.solve(tandem, "lp", metrics=self.METRICS, backend="scipy")

    def test_earlier_entry_replays_byte_identically(self, tmp_path, tandem):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        shutil.copy(self.PARENT_ENTRY, cache_dir)
        reg = SolverRegistry(cache=ResultCache(directory=cache_dir))
        replay = reg.solve(tandem, "lp", metrics=self.METRICS)
        assert replay.extra["cache_tier"] == "disk"
        assert replay.fingerprint == self.PARENT_ENTRY.stem
        assert json.dumps(replay.to_dict()) == self.PARENT_ENTRY.read_text()

    def test_fresh_answer_matches_earlier_entry(self, tandem):
        stored = SolveResult.from_dict(json.loads(self.PARENT_ENTRY.read_text()))
        fresh = SolverRegistry(cache=None).solve(
            tandem, "lp", metrics=self.METRICS
        )
        for a, b in (
            (fresh.throughput_interval(0), stored.throughput_interval(0)),
            (fresh.system_throughput, stored.system_throughput),
        ):
            assert abs(a.lower - b.lower) <= 1e-9
            assert abs(a.upper - b.upper) <= 1e-9


class TestNumericInvariance:
    def test_fresh_exact_answers_agree(self, tmp_path, tandem):
        results = {}
        for backend in ("dense", "operator"):
            reg = SolverRegistry(
                cache=ResultCache(directory=tmp_path / backend)
            )
            results[backend] = reg.solve(tandem, "exact", backend=backend)
        d, o = results["dense"], results["operator"]
        for metric in ("utilization", "queue_length"):
            dense_vals = [iv.midpoint for iv in getattr(d, metric)]
            op_vals = [iv.midpoint for iv in getattr(o, metric)]
            assert np.abs(
                np.asarray(op_vals) - np.asarray(dense_vals)
            ).max() < 1e-8

    def test_fresh_transient_answers_agree(self, tmp_path, tandem):
        results = {}
        for backend in ("dense", "operator"):
            reg = SolverRegistry(
                cache=ResultCache(directory=tmp_path / backend)
            )
            results[backend] = reg.solve(
                tandem, "transient", times=TIMES, pi0="loaded:q1",
                backend=backend,
            )
        d, o = results["dense"], results["operator"]
        assert np.abs(
            np.asarray(o.queue_length_t) - np.asarray(d.queue_length_t)
        ).max() < 1e-10

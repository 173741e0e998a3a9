"""Kronecker-backend benchmark: memory win and past-the-wall solves.

Two claims are gated here, both deterministic so CI enforces them
without timing noise:

* **memory/size win** — the operator's storage (factors + closed-form
  diagonal + digit table) must undercut the CSR bytes of the matrix it
  represents by a wide margin, computed from :meth:`materialized_nnz`
  (closed form — the honest basis at sizes where materializing to count
  is exactly what we cannot do);
* **backend dispatch** — the registry's ``exact`` and ``transient``
  solves at the preset's ring shape must run on the operator backend and
  agree with each other at ``t -> inf``.

The ``large`` preset is the PR's acceptance record: ``kron-ring`` at
``(M=6, N=18)`` — 2,153,536 joint states, past the 2,000,000-state dense
wall — solved exactly and transiently with ``Q`` never assembled.  The
committed ``BENCH_kron.json`` is regenerated via ``make bench-kron-large``.
"""

import time

import numpy as np
import pytest

from bench_reporting import bench_preset
from repro import obs
from repro.network.exact import expected_state_count
from repro.network.kron import kronecker_generator
from repro.network.statespace import NetworkStateSpace
from repro.obs.sentinel import KRON_MEMORY_WIN_FLOOR
from repro.runtime import SolverRegistry
from repro.runtime.cache import ResultCache
from repro.scenarios import get_scenario

#: (n_stations, population) of the kron-ring shape per preset.  Quick
#: stays materializable for CI; large crosses the dense storage wall.
_SHAPE = {"quick": (5, 6), "large": (6, 18)}

DENSE_WALL = 2_000_000
TIMES = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)

#: CSR storage model: float64 data + int32 indices per entry, int32 indptr.
_CSR_BYTES_PER_NNZ = 8 + 4
_CSR_BYTES_PER_ROW = 4


@pytest.fixture(scope="module")
def network():
    M, N = _SHAPE[bench_preset()]
    return get_scenario("kron-ring").network(population=N, n_stations=M)


@pytest.fixture(scope="module")
def operator(network):
    return kronecker_generator(
        network, NetworkStateSpace(network), validate=False
    )


def test_operator_memory_win(network, operator, kron_perf_report):
    """Factor storage beats the CSR bytes of the represented matrix."""
    S = operator.shape[0]
    nnz = operator.materialized_nnz()
    csr_bytes = nnz * _CSR_BYTES_PER_NNZ + (S + 1) * _CSR_BYTES_PER_ROW
    win = csr_bytes / operator.nbytes
    kron_perf_report.record(
        "kron_memory_win",
        preset=bench_preset(),
        n_states=int(S),
        materialized_nnz=int(nnz),
        csr_bytes=int(csr_bytes),
        operator_bytes=int(operator.nbytes),
        memory_win_factor=float(win),
    )
    # Deterministic gate: both sides are closed-form byte counts.
    gate = KRON_MEMORY_WIN_FLOOR[bench_preset()]
    assert win >= gate, (
        f"operator storage win {win:.1f}x < {gate}x "
        f"({operator.nbytes:,} operator bytes vs {csr_bytes:,} CSR bytes)"
    )


def test_matvec_wallclock(operator, kron_perf_report):
    """Record the kernel's per-application cost at the preset size.

    Where the materialized generator fits (below the dense wall: the
    quick preset), one CSR ``x @ Q`` is timed too, as the machine-local
    reference of the kernel.  Charted, not gated.
    """
    x = np.linspace(-1.0, 1.0, operator.shape[0])
    operator.rmatvec(x)  # warm the factor caches
    rounds = 3
    t0 = time.perf_counter()
    for _ in range(rounds):
        x = operator.rmatvec(x)
    t_rmatvec = (time.perf_counter() - t0) / rounds
    t0 = time.perf_counter()
    for _ in range(rounds):
        operator.matvec(x)
    t_matvec = (time.perf_counter() - t0) / rounds
    reference = {}
    if operator.shape[0] <= DENSE_WALL:
        QT = operator.materialize().T.tocsr()
        QT @ x
        t0 = time.perf_counter()
        for _ in range(rounds):
            QT @ x
        t_csr = (time.perf_counter() - t0) / rounds
        reference = {
            "t_csr_rmatvec_s": float(t_csr),
            "matvec_over_csr": float(t_rmatvec / max(t_csr, 1e-12)),
        }
    kron_perf_report.record(
        "kron_matvec",
        preset=bench_preset(),
        n_states=int(operator.shape[0]),
        t_rmatvec_s=float(t_rmatvec),
        t_matvec_s=float(t_matvec),
        states_per_second=float(operator.shape[0] / max(t_rmatvec, 1e-12)),
        **reference,
    )


def test_registry_solves_on_operator_backend(network, kron_perf_report,
                                             tmp_path):
    """Exact + transient through the registry, forced onto the operator.

    On the large preset this is the acceptance record: the model is past
    the dense wall, ``backend="auto"`` resolves to the operator, and both
    answers land without assembling ``Q``.
    """
    expected = expected_state_count(network)
    past_wall = expected > DENSE_WALL
    if bench_preset() == "large":
        assert past_wall, "large preset must cross the dense storage wall"
    backend = "auto" if past_wall else "operator"

    telemetry = obs.enable()
    before = telemetry.snapshot().counters.get("kron.matvecs", 0)
    registry = SolverRegistry(cache=ResultCache(directory=tmp_path / "cache"))

    t0 = time.perf_counter()
    exact = registry.solve(network, "exact", backend=backend)
    t_exact = time.perf_counter() - t0
    assert exact.extra["backend"] == "operator"

    t0 = time.perf_counter()
    transient = registry.solve(
        network, "transient", times=TIMES, pi0="loaded:q0", backend=backend
    )
    t_transient = time.perf_counter() - t0
    assert transient.extra["backend"] == "operator"
    kron_matvecs = (
        telemetry.snapshot().counters.get("kron.matvecs", 0) - before
    )

    # the two independent Krylov solves must find the same station law
    for k in range(network.n_stations):
        assert transient.queue_length_stationary(k) == pytest.approx(
            exact.queue_length_point(k), abs=1e-6
        )

    kron_perf_report.record(
        "kron_registry_solves",
        preset=bench_preset(),
        n_states=int(expected),
        past_dense_wall=bool(past_wall),
        backend=backend,
        t_exact_s=float(t_exact),
        t_transient_s=float(t_transient),
        transient_matvecs=int(transient.extra["n_matvecs"]),
        kron_matvecs_total=int(kron_matvecs),
        bottleneck_utilization=float(
            max(exact.utilization_point(k) for k in range(network.n_stations))
        ),
    )

"""Matrix-free Kronecker generator == assembled generator, bit for bit.

The contract of the PR-7 operator kernel: :func:`kronecker_generator`
represents *exactly* the CTMC that :func:`build_generator` assembles —

* ``matvec``/``rmatvec`` match ``Q @ v`` / ``v @ Q`` to 1e-12 relative on
  every closed catalog scenario and on hypothesis-random MAP networks;
* ``materialize()`` reproduces the assembled CSR matrix **bit-equal**
  (same indptr/indices/data arrays, no tolerance) — the emission loops
  mirror ``build_generator``'s ordering so even float summation artifacts
  coincide;
* the closed-form ``diagonal()`` matches the assembled diagonal to
  machine precision (summation order differs, so this one has a 1e-14
  relative tolerance);
* the operator-backed steady state and ``solve_exact(backend="operator")``
  agree with the dense path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maps import random_map2
from repro.markov import KroneckerGenerator, steady_state_ctmc
from repro.network import (
    Network,
    NetworkStateSpace,
    build_generator,
    kronecker_generator,
    queue,
    solve_exact,
)
from repro.scenarios import get_scenario_registry
from repro.workloads.ring import ring_model

SCENARIOS = tuple(
    sc.name for sc in get_scenario_registry()
    if sc.network().kind == "closed"
)

MATVEC_TOL = 1e-12


def relative_matvec_error(net, space=None, seed=0):
    """Max relative error of matvec/rmatvec vs the assembled generator."""
    space = space or NetworkStateSpace(net)
    Q = build_generator(net, space)
    op = kronecker_generator(net, space)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        x = rng.standard_normal(space.size)
        ref = float(np.abs(Q @ x).max()) + 1.0
        worst = max(worst, float(np.abs(op.matvec(x) - Q @ x).max()) / ref)
        ref_t = float(np.abs(Q.T @ x).max()) + 1.0
        worst = max(
            worst, float(np.abs(op.rmatvec(x) - Q.T @ x).max()) / ref_t
        )
    return worst


def assert_bit_identical(net, space=None):
    """materialize() == build_generator() with zero tolerance."""
    space = space or NetworkStateSpace(net)
    Q = build_generator(net, space)
    Qm = kronecker_generator(net, space).materialize()
    assert Qm.shape == Q.shape
    assert Qm.nnz == Q.nnz
    np.testing.assert_array_equal(Qm.indptr, Q.indptr)
    np.testing.assert_array_equal(Qm.indices, Q.indices)
    np.testing.assert_array_equal(Qm.data, Q.data)  # exact, no tolerance


# ---------------------------------------------------------------------- #
# every closed catalog scenario
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_matvec_equivalence(name):
    net = get_scenario_registry().get(name).network(population=3)
    assert relative_matvec_error(net) < MATVEC_TOL


@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_materialize_bit_identical(name):
    net = get_scenario_registry().get(name).network(population=3)
    assert_bit_identical(net)


@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_diagonal_matches(name):
    net = get_scenario_registry().get(name).network(population=3)
    space = NetworkStateSpace(net)
    Q = build_generator(net, space)
    op = kronecker_generator(net, space)
    scale = float(np.abs(Q.diagonal()).max()) + 1.0
    assert np.abs(op.diagonal() - Q.diagonal()).max() / scale < 1e-14


# ---------------------------------------------------------------------- #
# structured edge cases
# ---------------------------------------------------------------------- #
def test_single_station_self_loop():
    from repro.maps import fit_map2

    net = Network(
        [queue("q", fit_map2(1.0, 4.0, 0.2))], np.array([[1.0]]), 3
    )
    assert relative_matvec_error(net) < MATVEC_TOL
    assert_bit_identical(net)


def test_self_routing_probability_mass():
    from repro.maps import exponential, fit_map2

    routing = np.array([[0.5, 0.5], [0.4, 0.6]])
    net = Network(
        [queue("a", fit_map2(1.0, 5.0, 0.4)), queue("b", exponential(2.0))],
        routing,
        5,
    )
    assert relative_matvec_error(net) < MATVEC_TOL
    assert_bit_identical(net)


def test_delay_station_scales():
    from repro.maps import exponential, fit_map2
    from repro.network import delay

    routing = np.array([[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.0, 1.0, 0.0]])
    net = Network(
        [
            delay("clients", exponential(0.5)),
            queue("web", fit_map2(1.0, 9.0, 0.3)),
            queue("db", exponential(1.2)),
        ],
        routing,
        4,
    )
    assert relative_matvec_error(net) < MATVEC_TOL
    assert_bit_identical(net)


def test_ring_model_medium():
    net = ring_model(4, n_stations=4)
    assert relative_matvec_error(net) < MATVEC_TOL
    assert_bit_identical(net)


# ---------------------------------------------------------------------- #
# hypothesis: random MAP networks
# ---------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    M=st.integers(2, 3),
    N=st.integers(1, 5),
)
def test_random_network_equivalence(seed, M, N):
    rng = np.random.default_rng(seed)
    stations = [
        queue(f"q{j}", random_map2(rng=np.random.default_rng(seed + 17 * j)))
        for j in range(M)
    ]
    routing = rng.uniform(0.05, 1.0, size=(M, M))
    routing /= routing.sum(axis=1, keepdims=True)
    net = Network(stations, routing, N)
    assert relative_matvec_error(net, seed=seed) < MATVEC_TOL
    assert_bit_identical(net)


# ---------------------------------------------------------------------- #
# operator protocol details
# ---------------------------------------------------------------------- #
def test_matvec_counter_and_rowsum_residual():
    net = ring_model(3, n_stations=3)
    op = kronecker_generator(net, validate=False)
    assert op.n_matvecs == 0
    resid = op.rowsum_residual()
    assert resid < 1e-10
    assert op.n_matvecs == 1
    op.rmatvec(np.ones(op.shape[0]))
    assert op.n_matvecs == 2


def test_operator_is_scipy_linear_operator():
    import scipy.sparse.linalg as spla

    net = ring_model(2, n_stations=2)
    op = kronecker_generator(net)
    assert isinstance(op, spla.LinearOperator)
    assert isinstance(op, KroneckerGenerator)
    # scipy's protocol wrappers (@, .T) route through our kernels
    space = NetworkStateSpace(net)
    Q = build_generator(net, space)
    x = np.linspace(-1.0, 1.0, space.size)
    assert np.allclose(op @ x, Q @ x, atol=1e-12)


def test_storage_is_sublinear_in_nnz():
    # The whole point: the operator's footprint beats the materialized
    # matrix already at modest sizes (and the gap widens combinatorially).
    net = ring_model(6, n_stations=5)
    space = NetworkStateSpace(net)
    op = kronecker_generator(net, space)
    # nnz estimate counts pre-dedup COO entries incl. diagonal; the CSR
    # nnz is never larger.
    nnz = op.materialized_nnz()
    assert op.materialize().nnz <= nnz
    csr_bytes = nnz * (8 + 4) + (space.size + 1) * 4  # data+indices+indptr
    assert op.nbytes < csr_bytes


def test_materialized_nnz_counts_every_emission():
    net = ring_model(3, n_stations=3)
    op = kronecker_generator(net)
    Q = op.materialize()
    # estimate >= actual (dedup/cancellation can only shrink the CSR)
    assert op.materialized_nnz() >= Q.nnz


def test_phase_block_preconditioner_inverts_blocks():
    net = ring_model(3, n_stations=3)
    op = kronecker_generator(net)
    apply_M = op.phase_block_preconditioner(transpose=False)
    assert apply_M is not None
    x = np.linspace(0.5, 1.5, op.shape[0])
    y = apply_M(x)
    assert y.shape == x.shape
    assert np.all(np.isfinite(y))


def test_invalid_factor_shapes_rejected():
    net = ring_model(2, n_stations=2)
    op = kronecker_generator(net)
    with pytest.raises(ValueError):
        KroneckerGenerator(np.array([2, 3]), op.factors)
    with pytest.raises(ValueError):
        KroneckerGenerator(op.phase_dims, op.factors[:1])


def test_space_mismatch_rejected():
    net = ring_model(3, n_stations=3)
    other = ring_model(4, n_stations=3)
    with pytest.raises(ValueError):
        kronecker_generator(net, NetworkStateSpace(other))


# ---------------------------------------------------------------------- #
# operator-backed steady state and solve_exact dispatch
# ---------------------------------------------------------------------- #
def test_operator_steady_state_matches_direct():
    net = ring_model(4, n_stations=4)
    space = NetworkStateSpace(net)
    Q = build_generator(net, space)
    pi_direct = steady_state_ctmc(Q, method="direct")
    pi_op = steady_state_ctmc(kronecker_generator(net, space))
    assert np.abs(pi_op - pi_direct).max() < 1e-10


def test_solve_exact_backend_parity():
    net = get_scenario_registry().get("fig5-case-study").network(population=4)
    dense = solve_exact(net, backend="dense")
    operator = solve_exact(net, backend="operator")
    # Krylov solve targets rtol 1e-10, so metric-level agreement is ~1e-8.
    for k in range(net.n_stations):
        assert operator.utilization(k) == pytest.approx(
            dense.utilization(k), abs=1e-8
        )
        assert operator.throughput(k) == pytest.approx(
            dense.throughput(k), abs=1e-8
        )
        assert operator.mean_queue_length(k) == pytest.approx(
            dense.mean_queue_length(k), abs=1e-8
        )


def test_solve_exact_auto_goes_operator_past_the_wall():
    net = ring_model(4, n_stations=3)  # S = 1280
    sol = solve_exact(net, backend="auto", max_states=100)
    dense = solve_exact(net, backend="dense")
    assert np.abs(sol.pi - dense.pi).max() < 1e-10


def test_solve_exact_operator_guard():
    net = ring_model(4, n_stations=3)
    with pytest.raises(MemoryError):
        solve_exact(net, backend="operator", operator_max_states=100)


def test_solve_exact_rejects_unknown_backend():
    net = ring_model(2, n_stations=2)
    with pytest.raises(ValueError):
        solve_exact(net, backend="sparse")


# ---------------------------------------------------------------------- #
# every branch of the apply plan
# ---------------------------------------------------------------------- #
def random_map(order, rng):
    """Irreducible MAP of the given order with dense random rates."""
    from repro.maps import MAP

    D0 = rng.uniform(0.1, 1.0, size=(order, order))
    D1 = rng.uniform(0.1, 1.0, size=(order, order))
    np.fill_diagonal(D0, 0.0)
    np.fill_diagonal(D0, -(D0.sum(axis=1) + D1.sum(axis=1)))
    return MAP(D0, D1)


def _branch_network(kind):
    from repro.maps import exponential
    from repro.network import delay

    rng = np.random.default_rng(7)
    if kind == "orders-1-to-5":
        stations = [queue(f"k{K}", random_map(K, rng)) for K in range(1, 6)]
        routing = np.roll(np.eye(5), 1, axis=1)  # ring
        return Network(stations, routing, 2)
    if kind == "long-trailing-block":
        # station 0 sees a trailing block of 3*4*3 = 36 phase codes
        stations = [queue(f"q{j}", random_map(K, rng)) for j, K in enumerate((2, 3, 4, 3))]
        routing = rng.uniform(0.1, 1.0, size=(4, 4))
        return Network(stations, routing / routing.sum(axis=1, keepdims=True), 2)
    if kind == "delay-multi-target":
        routing = np.array(
            [[0.0, 0.5, 0.3, 0.2], [1.0, 0.0, 0.0, 0.0],
             [0.6, 0.0, 0.0, 0.4], [1.0, 0.0, 0.0, 0.0]]
        )
        stations = [
            delay("think", exponential(0.7)),
            queue("a", random_map(3, rng)),
            queue("b", random_map(2, rng)),
            queue("c", exponential(2.0)),
        ]
        return Network(stations, routing, 4)
    if kind == "self-routing":
        routing = np.array([[0.4, 0.6, 0.0], [0.0, 0.5, 0.5], [0.7, 0.0, 0.3]])
        stations = [
            queue("map", random_map(3, rng)),
            queue("exp", exponential(1.5)),  # self-routed: all-zero local term
            queue("map2", random_map(2, rng)),
        ]
        return Network(stations, routing, 3)
    raise ValueError(kind)


BRANCH_NETWORKS = (
    "orders-1-to-5", "long-trailing-block", "delay-multi-target", "self-routing",
)


@pytest.mark.parametrize("gemm_max_post", [0, None, 10**6], ids=["slab", "mixed", "gemm"])
@pytest.mark.parametrize("kind", BRANCH_NETWORKS)
def test_apply_plan_branches_match_assembled(kind, gemm_max_post, monkeypatch):
    from repro.markov import kronop

    if gemm_max_post is not None:
        monkeypatch.setattr(kronop, "GEMM_MAX_POST", gemm_max_post)
    net = _branch_network(kind)
    space = NetworkStateSpace(net)
    op = kronecker_generator(net, space)
    contractions = [c for p in op._plan for _, fwd, bwd in p.terms for c in (fwd, bwd)]
    uses_gemm = {c.F is not None for c in contractions}
    if gemm_max_post == 0:
        assert uses_gemm == {False}
    elif gemm_max_post is None and kind == "long-trailing-block":
        assert uses_gemm == {False, True}
    elif gemm_max_post is not None:
        assert uses_gemm == {True}
    assert relative_matvec_error(net, space) < MATVEC_TOL


def test_apply_plan_folds_scales_and_skips_zero_local_terms():
    net = _branch_network("delay-multi-target")
    op = kronecker_generator(net)
    think, a, b, c = op._plan
    assert think.weights is not None  # c_j(n) = n at the delay station
    assert a.weights is None and b.weights is None and c.weights is None
    # the exponential stations have no phase dynamics: moves only
    assert len(think.terms) == 3 and len(c.terms) == 1
    # the MAP queues keep their local term plus one term per target
    assert len(a.terms) == 2 and len(b.terms) == 3
    selfish = kronecker_generator(_branch_network("self-routing"))
    assert len(selfish._plan[1].terms) == 1  # p_jj D1 of a MAP(1) is diagonal


@pytest.mark.parametrize("kind", BRANCH_NETWORKS)
def test_nbytes_counts_the_apply_plan(kind):
    op = kronecker_generator(_branch_network(kind))
    plan = sum(p.nbytes for p in op._plan)
    base = op._diag2.nbytes + op.phase_digits.nbytes
    base += sum(f.nbytes for f in op.factors)
    assert plan > 0
    assert op.nbytes == base + plan

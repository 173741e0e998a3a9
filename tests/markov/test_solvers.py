"""Tests for CTMC/DTMC steady-state solvers and uniformization."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.markov import steady_state_ctmc, steady_state_dtmc, transient_distribution
from repro.utils.errors import IterativeSolverError, SolverError, ValidationError


def birth_death_generator(n: int, lam: float, mu: float) -> np.ndarray:
    """M/M/1/n queue generator with known geometric stationary law."""
    Q = np.zeros((n + 1, n + 1))
    for i in range(n):
        Q[i, i + 1] = lam
        Q[i + 1, i] = mu
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


class TestCTMCSteadyState:
    def test_two_state_chain(self):
        Q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        pi = steady_state_ctmc(Q)
        assert pi == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    @pytest.mark.parametrize("rho", [0.3, 0.9, 1.5])
    def test_birth_death_geometric(self, rho):
        n, mu = 20, 1.0
        Q = birth_death_generator(n, rho * mu, mu)
        pi = steady_state_ctmc(Q)
        expected = rho ** np.arange(n + 1)
        expected /= expected.sum()
        assert np.allclose(pi, expected, atol=1e-10)

    def test_sparse_input(self):
        Q = sp.csr_matrix(birth_death_generator(50, 0.7, 1.0))
        pi = steady_state_ctmc(Q)
        assert pi.sum() == pytest.approx(1.0)
        assert np.abs(pi @ Q.toarray()).max() < 1e-8

    def test_gmres_agrees_with_direct(self):
        Q = birth_death_generator(200, 0.95, 1.0)
        direct = steady_state_ctmc(Q, method="direct")
        gmres = steady_state_ctmc(sp.csr_matrix(Q), method="gmres", tol=1e-12)
        assert np.allclose(direct, gmres, atol=1e-7)

    def test_single_state(self):
        assert steady_state_ctmc(np.zeros((1, 1))) == pytest.approx([1.0])

    def test_rejects_bad_rowsums(self):
        with pytest.raises(ValueError):
            steady_state_ctmc(np.array([[-1.0, 0.5], [1.0, -1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            steady_state_ctmc(np.zeros((2, 3)))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            steady_state_ctmc(np.array([[-1.0, 1.0], [1.0, -1.0]]), method="magic")

    def test_gmres_large_near_saturation(self):
        # rho ~ 1 makes the chain nearly null-recurrent: the stationary
        # law is almost flat and the system badly conditioned
        Q = birth_death_generator(400, 0.999, 1.0)
        direct = steady_state_ctmc(Q, method="direct")
        gmres = steady_state_ctmc(sp.csr_matrix(Q), method="gmres", tol=1e-12)
        assert np.abs(direct - gmres).max() < 1e-7

    def test_gmres_multiscale_rates(self):
        # rates spanning 4 orders of magnitude: stiff generator whose
        # ILU-preconditioned solve must still reach the analytic law
        n, mu = 60, 1.0
        lam = 0.5
        Q = np.zeros((n + 1, n + 1))
        for i in range(n):
            scale = 1.0 if i % 2 == 0 else 1e4
            Q[i, i + 1] = lam * scale
            Q[i + 1, i] = mu * scale
        np.fill_diagonal(Q, -Q.sum(axis=1))
        direct = steady_state_ctmc(Q, method="direct")
        gmres = steady_state_ctmc(sp.csr_matrix(Q), method="gmres", tol=1e-12)
        assert np.abs(direct - gmres).max() < 1e-8

    def test_gmres_nonconvergence_is_structured(self, monkeypatch):
        # force scipy to report a stall and assert the structured error
        def stalled_gmres(A, b, x0=None, **kw):
            return x0.copy(), 17

        monkeypatch.setattr(spla, "gmres", stalled_gmres)
        Q = sp.csr_matrix(birth_death_generator(30, 0.8, 1.0))
        with pytest.raises(IterativeSolverError) as exc:
            steady_state_ctmc(Q, method="gmres", tol=1e-10)
        err = exc.value
        assert isinstance(err, SolverError)
        assert err.solver == "gmres"
        assert err.info == 17
        assert err.iterations == 17
        assert err.residual > err.tolerance
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.solver, clone.info, clone.residual) == (
            err.solver, err.info, err.residual
        )

    def test_operator_method_requires_linear_operator(self):
        Q = birth_death_generator(5, 1.0, 1.0)
        with pytest.raises(ValueError):
            steady_state_ctmc(Q, method="operator")
        with pytest.raises(ValueError):
            steady_state_ctmc(sp.csr_matrix(Q), method="operator")


class _MatrixBackedOperator(spla.LinearOperator):
    """Dense generator wrapped behind the matrix-free protocol."""

    def __init__(self, Q: np.ndarray):
        self._Q = np.asarray(Q, dtype=float)
        super().__init__(dtype=np.float64, shape=self._Q.shape)

    def _matvec(self, x):
        return self._Q @ np.asarray(x, dtype=float).reshape(-1)

    def _rmatvec(self, x):
        return self._Q.T @ np.asarray(x, dtype=float).reshape(-1)

    def diagonal(self) -> np.ndarray:
        return np.diag(self._Q)


class TestOperatorSteadyState:
    def test_linear_operator_input_matches_direct(self):
        Q = birth_death_generator(50, 0.7, 1.0)
        direct = steady_state_ctmc(Q, method="direct")
        pi = steady_state_ctmc(_MatrixBackedOperator(Q))
        assert np.abs(pi - direct).max() < 1e-8
        assert pi.sum() == pytest.approx(1.0)

    def test_explicit_operator_method_accepted(self):
        Q = birth_death_generator(20, 0.5, 1.0)
        pi = steady_state_ctmc(_MatrixBackedOperator(Q), method="operator")
        assert np.abs(pi @ Q).max() < 1e-8

    def test_rejects_non_operator_methods(self):
        op = _MatrixBackedOperator(birth_death_generator(5, 1.0, 1.0))
        with pytest.raises(ValueError):
            steady_state_ctmc(op, method="direct")
        with pytest.raises(ValueError):
            steady_state_ctmc(op, method="gmres")

    def test_requires_diagonal_method(self):
        Q = birth_death_generator(10, 0.5, 1.0)
        bare = spla.LinearOperator(
            Q.shape, matvec=lambda x: Q @ x, rmatvec=lambda x: Q.T @ x,
            dtype=np.float64,
        )
        with pytest.raises(ValueError, match="diagonal"):
            steady_state_ctmc(bare)

    def test_rejects_bad_rowsums(self):
        bad = np.array([[-1.0, 0.5], [1.0, -1.0]])
        with pytest.raises(ValueError):
            steady_state_ctmc(_MatrixBackedOperator(bad))

    def test_nonconvergence_is_structured(self, monkeypatch):
        from repro.markov import ctmc

        monkeypatch.setattr(ctmc, "OPERATOR_MAXITER", 1)
        Q = birth_death_generator(80, 0.95, 1.0)
        with pytest.raises(IterativeSolverError) as exc:
            steady_state_ctmc(_MatrixBackedOperator(Q))
        err = exc.value
        assert isinstance(err, SolverError)
        assert err.solver == "bicgstab"
        assert err.iterations >= 1
        assert err.residual >= 0.0
        assert "converge" in str(err)
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.solver, clone.info, clone.iterations) == (
            err.solver, err.info, err.iterations
        )


class TestDTMCSteadyState:
    def test_two_state(self):
        P = np.array([[0.9, 0.1], [0.3, 0.7]])
        pi = steady_state_dtmc(P)
        assert pi == pytest.approx([0.75, 0.25])

    def test_doubly_stochastic_is_uniform(self):
        P = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        assert steady_state_dtmc(P) == pytest.approx([1 / 3] * 3)

    def test_single_state(self):
        assert steady_state_dtmc(np.ones((1, 1))) == pytest.approx([1.0])

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            steady_state_dtmc(np.array([[0.5, 0.4], [0.3, 0.7]]))

    def test_reducible_raises(self):
        P = np.eye(2)
        with pytest.raises(SolverError):
            steady_state_dtmc(P)


class TestUniformization:
    def test_converges_to_steady_state(self):
        Q = birth_death_generator(10, 0.6, 1.0)
        pi_inf = steady_state_ctmc(Q)
        pi0 = np.zeros(11)
        pi0[0] = 1.0
        pi_t = transient_distribution(Q, pi0, t=200.0)
        assert np.allclose(pi_t, pi_inf, atol=1e-6)

    def test_time_zero_identity(self):
        Q = birth_death_generator(5, 1.0, 1.0)
        pi0 = np.zeros(6)
        pi0[2] = 1.0
        assert np.array_equal(transient_distribution(Q, pi0, 0.0), pi0)

    def test_matches_expm(self):
        import scipy.linalg

        Q = birth_death_generator(8, 0.8, 1.2)
        pi0 = np.full(9, 1.0 / 9.0)
        t = 2.5
        expected = pi0 @ scipy.linalg.expm(Q * t)
        got = transient_distribution(Q, pi0, t)
        assert np.allclose(got, expected, atol=1e-9)

    def test_mass_conserved(self):
        Q = birth_death_generator(15, 1.3, 1.0)
        pi0 = np.zeros(16)
        pi0[7] = 1.0
        pi_t = transient_distribution(Q, pi0, 5.0)
        assert pi_t.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_time(self):
        Q = birth_death_generator(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            transient_distribution(Q, np.array([1.0, 0, 0, 0]), -1.0)

    def test_large_qt_converges_without_truncation_error(self):
        """Float drift on long series must normalize, not raise."""
        Q = birth_death_generator(4, 1.0, 1.5)
        pi0 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        pi_t = transient_distribution(Q, pi0, 500.0)  # qt ~ 2000 terms
        assert pi_t.sum() == pytest.approx(1.0, abs=1e-9)

    def test_truncation_raises_structured_error(self, monkeypatch):
        from repro.markov import uniformization
        from repro.utils.errors import SeriesTruncationError

        monkeypatch.setattr(uniformization, "max_series_terms", lambda qt: 1)
        Q = birth_death_generator(5, 1.0, 1.0)
        pi0 = np.zeros(6)
        pi0[0] = 1.0
        with pytest.raises(SeriesTruncationError) as exc:
            transient_distribution(Q, pi0, 10.0)
        err = exc.value
        assert err.terms >= 1
        assert 0.0 <= err.accumulated < 1.0
        assert err.qt > 0 and err.tol > 0
        # the structured fields survive pickling (sweep-worker transport)
        import pickle

        clone = pickle.loads(pickle.dumps(err))
        assert (clone.qt, clone.terms) == (err.qt, err.terms)


class TestReducedSystem:
    """The pinned closed-class system against the dense null-space oracle."""

    @staticmethod
    def transient_chain() -> np.ndarray:
        # states 0, 1 drain into the closed class {2, 3, 4} and never return
        Q = np.zeros((5, 5))
        Q[0, 1], Q[0, 2] = 1.0, 0.5
        Q[1, 0], Q[1, 4] = 0.3, 2.0
        Q[2, 3], Q[3, 4], Q[4, 2], Q[3, 2] = 1.0, 2.0, 3.0, 0.5
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return Q

    @staticmethod
    def unreachable_last_state():
        """Closed network whose last joint state is never entered.

        Erlang service completes only from its last phase and restarts in
        phase 0 (``D1`` has zero columns), so the idle Erlang station of
        the last composition is never in phase ``K-1``.
        """
        from repro.maps import erlang, exponential
        from repro.network import Network, build_generator, queue

        net = Network(
            [queue("x", exponential(1.0)), queue("e", erlang(3, 3.0))],
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            2,
        )
        return build_generator(net)

    @pytest.mark.parametrize("method", ["direct", "gmres"])
    def test_transient_states_get_zero_mass(self, method):
        from oracles.ctmc import stationary_nullspace

        Q = self.transient_chain()
        pi = steady_state_ctmc(sp.csr_matrix(Q), method=method)
        assert np.abs(pi - stationary_nullspace(Q)).max() < 1e-12
        assert pi[0] == 0.0 and pi[1] == 0.0

    @pytest.mark.parametrize("method", ["direct", "gmres"])
    def test_unreachable_last_joint_state(self, method):
        from oracles.ctmc import stationary_nullspace

        Q = self.unreachable_last_state()
        inflow = Q.tocsc()[:, -1].toarray().ravel()[:-1]
        assert not np.any(inflow > 0)  # nothing ever enters the last state
        pi = steady_state_ctmc(Q, method=method)
        assert np.abs(pi - stationary_nullspace(Q)).max() < 1e-12
        assert pi[-1] == 0.0

    @pytest.mark.parametrize("method", ["direct", "gmres"])
    def test_two_closed_classes_raise(self, method):
        from oracles.ctmc import stationary_nullspace

        Q = np.zeros((5, 5))
        Q[0, 1], Q[1, 0] = 1.0, 2.0  # closed class {0, 1}
        Q[2, 3], Q[3, 2] = 1.0, 1.0  # closed class {2, 3}
        Q[4, 0], Q[4, 2] = 1.0, 1.0  # transient state feeding both
        np.fill_diagonal(Q, -Q.sum(axis=1))
        with pytest.raises(ValueError):
            stationary_nullspace(Q)
        with pytest.raises(SolverError, match="closed communicating classes"):
            steady_state_ctmc(Q, method=method)

    def test_gmres_solves_the_same_reduced_system(self):
        from oracles.ctmc import stationary_nullspace

        Q = sp.csr_matrix(birth_death_generator(120, 0.9, 1.0))
        ref = stationary_nullspace(Q)
        direct = steady_state_ctmc(Q, method="direct")
        gmres = steady_state_ctmc(Q, method="gmres", tol=1e-12)
        assert np.abs(direct - ref).max() < 1e-12
        assert np.abs(gmres - ref).max() < 1e-10

    @pytest.mark.parametrize("method", ["direct", "gmres"])
    @pytest.mark.parametrize("n", [200, 1100])
    def test_light_pin_is_replaced(self, method, n):
        # M/M/1/n at rho = 1/2: pi_n ~ 2^-n pi_0.  Pinned at the last state,
        # the final LU pivot (~2^-n) cancels to zero, and x = pi / pi_n
        # overflows once n > 1024.
        rho = 0.5
        Q = sp.csr_matrix(birth_death_generator(n, rho, 1.0))
        pi = steady_state_ctmc(Q, method=method)
        expected = rho ** np.arange(n + 1) * (1.0 - rho) / (1.0 - rho ** (n + 1))
        assert np.abs(pi - expected).max() < 1e-12
        assert pi[0] == pytest.approx(0.5, rel=1e-12)
        if n > 1074:
            assert pi[-1] == 0.0  # 2^-1101 underflows

    def test_negative_solution_repins_at_heaviest_state(self):
        # On tpcw N=512 (263,682 states) the last-state pin cancels a pivot
        # to round-off of the wrong sign, and x comes out hugely negative.
        # A factor stub gives that outcome on a chain small enough to test.
        from repro.markov import ctmc

        Q = sp.csr_matrix(birth_death_generator(10, 0.5, 1.0))
        pins = []

        def flipped_once(A, b):
            x = spla.spsolve(A, b)
            pins.append(x)
            return None, -x if len(pins) == 1 else x

        keep, pin, _, _, _, x = ctmc._pinned_solve(
            Q, np.arange(11), flipped_once, 10
        )
        assert len(pins) == 2
        assert pin == 0  # x = pi / pi_10 peaks at state 0
        expected = 0.5 ** np.arange(11)
        pi = ctmc._expand(keep, pin, x, 11)
        assert np.abs(pi - expected / expected.sum()).max() < 1e-15

    def test_lu_fill_and_solve_span(self):
        from repro import obs

        Q = sp.csr_matrix(birth_death_generator(50, 0.7, 1.0))
        with obs.use(obs.Telemetry()) as tele:
            steady_state_ctmc(Q)
        (span,) = [s for s in tele.roots if s.name == "ctmc.solve"]
        assert span.attributes == {
            "n_states": 51, "nnz": Q.nnz, "method": "direct"
        }
        # The reduced system is a 50x50 tridiagonal M-matrix (148 entries).
        # It factors without fill: L and U each hold the diagonal.
        lu_nnz = tele.snapshot().counters["ctmc.lu_nnz"]
        assert span.counters["ctmc.lu_nnz"] == lu_nnz
        assert 0 < lu_nnz <= 148 + 50

    def test_lu_fill_bound_on_tpcw(self):
        """The pinned LU stays sparse: <= 10x nnz(Q) on tpcw N=128.

        Deterministic (a count, not a time).  The ordering gives 8.1x
        here; the seed's dense normalization row gave 87x.
        """
        from repro import obs
        from repro.network import build_generator
        from repro.scenarios import get_scenario

        Q = build_generator(get_scenario("tpcw").network(population=128))
        with obs.use(obs.Telemetry()) as tele:
            steady_state_ctmc(Q, method="direct")
        lu_nnz = tele.snapshot().counters["ctmc.lu_nnz"]
        assert lu_nnz <= 10 * Q.nnz, f"LU fill {lu_nnz / Q.nnz:.1f}x nnz(Q)"

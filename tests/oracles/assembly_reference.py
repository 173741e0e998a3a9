"""Reference (seed) row-by-row constraint assembly.

This is the original per-row emitter kept verbatim as the correctness
oracle for the vectorized block assembler in :mod:`repro.core.assembly`:
``tests/core/test_assembly_equivalence.py`` asserts that both paths produce
the identical polytope (canonicalized CSR matrices bit-equal, identical
labels/rhs/bounds) on every catalog scenario, and
``benchmarks/test_bench_lp_scaling.py`` times the vectorized path against
it.  It ships with the tests, not the package.  It is quadruple-nested
Python loops calling :meth:`_RowBuilder.add_row` once per row — clear,
slow, and deliberately untouched.

See :mod:`repro.core.constraints` for the family documentation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.assembly import ConstraintSystem
from repro.core.variables import VariableIndex
from repro.network.model import Network
from repro.utils.errors import NotSupportedError

__all__ = ["build_constraints_reference"]


class _RowBuilder:
    """Accumulates sparse rows of a constraint matrix."""

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.rhs: list[float] = []
        self.labels: list[str] = []
        self.n_rows = 0

    def add_row(self, cols, vals, rhs: float, label: str) -> None:
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        keep = vals != 0.0
        cols, vals = cols[keep], vals[keep]
        self.rows.append(np.full(len(cols), self.n_rows, dtype=np.int64))
        self.cols.append(cols)
        self.vals.append(vals)
        self.rhs.append(rhs)
        self.labels.append(label)
        self.n_rows += 1

    def matrix(self, n_vars: int) -> tuple[sp.csr_matrix, np.ndarray]:
        if self.n_rows == 0:
            return sp.csr_matrix((0, n_vars)), np.empty(0)
        A = sp.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=(self.n_rows, n_vars),
        ).tocsr()
        A.sum_duplicates()
        return A, np.asarray(self.rhs)


def _source_arrival_terms(
    network: Network, vi: VariableIndex, j: int, k: int, n: int, h: int
) -> tuple[np.ndarray, np.ndarray]:
    """(cols, vals) of the arrival-rate expression from station j into k,
    conditioned on ``{n_k = n, h_k = h}``, *excluding* the routing factor.

    Queue source:  sum_a e_j(a) * V_jk(a, n, h)   (unit rate while busy)
    Delay source:  mu_j * G_jk(0, n, h)           (rate n_j * mu_j)
    """
    st = network.stations[j]
    if st.kind == "queue":
        e_j = st.service.D1.sum(axis=1)  # event rate per phase
        a = np.arange(st.phases)
        return vi.V(j, k, a, n, h), e_j
    if st.kind == "delay":
        mu = float(st.service.D1[0, 0])
        return np.atleast_1d(vi.G(j, k, 0, n, h)), np.array([mu])
    raise NotSupportedError(
        f"station {st.name!r}: multiserver stations are not supported by the "
        "marginal-balance LP (their conditional departure rate is not a "
        "variable of the program); use solve_exact or the simulator"
    )


def build_constraints_reference(
    network: Network,
    vi: VariableIndex | None = None,
    include_redundant: bool = False,
    triples: bool | None = None,
) -> ConstraintSystem:
    """Assemble all exact constraint families for ``network`` (row by row).

    Same contract as :func:`repro.core.constraints.build_constraints`; kept
    as the equivalence oracle and for micro-benchmarks of the vectorized
    path.
    """
    vi = vi or VariableIndex(network, triples=triples)
    M = network.n_stations
    N = network.population
    for st in network.stations:
        if st.kind == "multiserver":
            raise NotSupportedError(
                f"station {st.name!r}: multiserver stations are not supported "
                "by the marginal-balance LP"
            )

    eq = _RowBuilder()
    ub = _RowBuilder()
    routing = network.routing

    # ------------------------------------------------------------------ #
    # Family A: level-phase balance of {n_k = n, h_k = h}
    # ------------------------------------------------------------------ #
    for k in range(M):
        st_k = network.stations[k]
        Kk = st_k.phases
        D0k, D1k = st_k.service.D0, st_k.service.D1
        e_k = D1k.sum(axis=1)
        d0_out = D0k.sum(axis=1) - np.diag(D0k)  # off-diagonal row sums
        qkk = routing[k, k]
        sources = [j for j in range(M) if j != k and routing[j, k] > 0.0]
        levels = np.arange(N + 1)
        c_k = st_k.rate_scale(levels)  # c_k(0) = 0 handles the idle boundary
        for n in range(N + 1):
            for h in range(Kk):
                cols: list[np.ndarray] = []
                vals: list[np.ndarray] = []

                # OUT: station k's own transitions leaving the set.
                own_out = c_k[n] * (
                    d0_out[h] + qkk * (e_k[h] - D1k[h, h]) + (1.0 - qkk) * e_k[h]
                )
                if own_out != 0.0:
                    cols.append(np.atleast_1d(vi.pi(k, n, h)))
                    vals.append(np.array([own_out]))

                # OUT: arrivals from j != k push n -> n+1 (leave the set).
                if n < N:
                    for j in sources:
                        c_j, v_j = _source_arrival_terms(network, vi, j, k, n, h)
                        cols.append(c_j)
                        vals.append(routing[j, k] * v_j)

                # IN: same-level phase changes g -> h (hidden or self-routed).
                for g in range(Kk):
                    if g == h:
                        continue
                    rate_in = c_k[n] * (D0k[g, h] + qkk * D1k[g, h])
                    if rate_in != 0.0:
                        cols.append(np.atleast_1d(vi.pi(k, n, g)))
                        vals.append(np.array([-rate_in]))

                # IN: from level n-1 via an arrival (k's phase h unchanged).
                if n >= 1:
                    for j in sources:
                        c_j, v_j = _source_arrival_terms(network, vi, j, k, n - 1, h)
                        cols.append(c_j)
                        vals.append(-routing[j, k] * v_j)

                # IN: from level n+1 via a completion routed away, g -> h.
                if n + 1 <= N:
                    g = np.arange(Kk)
                    rate_in = c_k[n + 1] * (1.0 - qkk) * D1k[:, h]
                    cols.append(vi.pi(k, n + 1, g))
                    vals.append(-rate_in)

                if not cols:
                    continue
                all_cols = np.concatenate(cols)
                all_vals = np.concatenate(vals)
                # Sign convention: OUT terms positive, IN terms negative.
                eq.add_row(all_cols, all_vals, 0.0, f"A[k={k},n={n},h={h}]")

    # ------------------------------------------------------------------ #
    # Family C: V/W <-> pi consistency
    # ------------------------------------------------------------------ #
    for j in range(M):
        Kj = network.stations[j].phases
        for k in range(M):
            if j == k:
                continue
            Kk = network.stations[k].phases
            # C1: sum_a (V + W)_jk(a, n, h) = pi_k(n, h)
            a = np.arange(Kj)
            for n in range(N + 1):
                for h in range(Kk):
                    cols = np.concatenate(
                        [
                            vi.V(j, k, a, n, h),
                            vi.W(j, k, a, n, h),
                            np.atleast_1d(vi.pi(k, n, h)),
                        ]
                    )
                    vals = np.concatenate([np.ones(Kj), np.ones(Kj), [-1.0]])
                    eq.add_row(cols, vals, 0.0, f"C1[j={j},k={k},n={n},h={h}]")
            # C2: sum_{n,h} V_jk(a, n, h) = sum_{n>=1} pi_j(n, a)
            # C3: sum_{n,h} W_jk(a, n, h) = pi_j(0, a)
            nn, hh = np.meshgrid(np.arange(N + 1), np.arange(Kk), indexing="ij")
            for a_val in range(Kj):
                v_cols = vi.V(j, k, a_val, nn.ravel(), hh.ravel())
                pj_cols = vi.pi(j, np.arange(1, N + 1), a_val) if N >= 1 else []
                cols = np.concatenate([v_cols, np.atleast_1d(pj_cols)])
                vals = np.concatenate([np.ones(v_cols.size), -np.ones(N)])
                eq.add_row(cols, vals, 0.0, f"C2[j={j},k={k},a={a_val}]")

                w_cols = vi.W(j, k, a_val, nn.ravel(), hh.ravel())
                cols = np.concatenate([w_cols, [vi.pi(j, 0, a_val)]])
                vals = np.concatenate([np.ones(w_cols.size), [-1.0]])
                eq.add_row(cols, vals, 0.0, f"C3[j={j},k={k},a={a_val}]")

    # ------------------------------------------------------------------ #
    # Family D: pair symmetry (each unordered pair once)
    # ------------------------------------------------------------------ #
    for j in range(M):
        for k in range(j + 1, M):
            Kj = network.stations[j].phases
            Kk = network.stations[k].phases
            n_pos = np.arange(1, N + 1)
            for a in range(Kj):
                for h in range(Kk):
                    # D1: P[both busy, h_j=a, h_k=h] two ways.
                    cols = np.concatenate(
                        [vi.V(j, k, a, n_pos, h), vi.V(k, j, h, n_pos, a)]
                    )
                    vals = np.concatenate([np.ones(N), -np.ones(N)])
                    eq.add_row(cols, vals, 0.0, f"D1[j={j},k={k},a={a},h={h}]")
                    # D2: V_jk(a, 0, h) = sum_{m>=1} W_kj(h, m, a)
                    cols = np.concatenate(
                        [[vi.V(j, k, a, 0, h)], vi.W(k, j, h, n_pos, a)]
                    )
                    vals = np.concatenate([[1.0], -np.ones(N)])
                    eq.add_row(cols, vals, 0.0, f"D2[j={j},k={k},a={a},h={h}]")
                    # D3: W_jk(a, 0, h) = W_kj(h, 0, a)  (both idle, symmetric)
                    eq.add_row(
                        [vi.W(j, k, a, 0, h), vi.W(k, j, h, 0, a)],
                        [1.0, -1.0],
                        0.0,
                        f"D3[j={j},k={k},a={a},h={h}]",
                    )

    # ------------------------------------------------------------------ #
    # Family E: normalization
    # ------------------------------------------------------------------ #
    for k in range(M):
        Kk = network.stations[k].phases
        nn, hh = np.meshgrid(np.arange(N + 1), np.arange(Kk), indexing="ij")
        eq.add_row(
            vi.pi(k, nn.ravel(), hh.ravel()),
            np.ones(nn.size),
            1.0,
            f"E1[k={k}]",
        )

    # ------------------------------------------------------------------ #
    # Family G: population couplings + G/V sandwich
    # ------------------------------------------------------------------ #
    # G1: sum_{j != k} sum_a G_jk(a, n, h) = (N - n) pi_k(n, h)
    for k in range(M):
        Kk = network.stations[k].phases
        others = [j for j in range(M) if j != k]
        if not others:
            continue
        for n in range(N + 1):
            for h in range(Kk):
                g_cols = [
                    vi.G(j, k, np.arange(network.stations[j].phases), n, h)
                    for j in others
                ]
                cols = np.concatenate(g_cols + [np.atleast_1d(vi.pi(k, n, h))])
                vals = np.concatenate(
                    [np.ones(sum(len(c) for c in g_cols)), [-(N - n)]]
                )
                eq.add_row(cols, vals, 0.0, f"G1[k={k},n={n},h={h}]")

    # G2/G3: population conditioned on source-station busy/idle state.
    for j in range(M):
        Kj = network.stations[j].phases
        others = [k for k in range(M) if k != j]
        if not others:
            continue
        n_pos = np.arange(1, N + 1)
        for a in range(Kj):
            cols = [vi.pi(j, n_pos, a)]
            vals = [n_pos.astype(float) - float(N)]  # n pi_j(n,a) - N pi_j(n,a)
            for k in others:
                Kk = network.stations[k].phases
                nn, hh = np.meshgrid(np.arange(N + 1), np.arange(Kk), indexing="ij")
                cols.append(vi.V(j, k, a, nn.ravel(), hh.ravel()))
                vals.append(np.broadcast_to(nn.ravel(), nn.size).astype(float))
            eq.add_row(
                np.concatenate(cols),
                np.concatenate(vals),
                0.0,
                f"G2[j={j},a={a}]",
            )
            # G3: sum_k sum_{n,h} n W_jk(a,n,h) = N pi_j(0,a)
            cols = [np.atleast_1d(vi.pi(j, 0, a))]
            vals = [np.array([-float(N)])]
            for k in others:
                Kk = network.stations[k].phases
                nn, hh = np.meshgrid(np.arange(N + 1), np.arange(Kk), indexing="ij")
                cols.append(vi.W(j, k, a, nn.ravel(), hh.ravel()))
                vals.append(np.broadcast_to(nn.ravel(), nn.size).astype(float))
            eq.add_row(
                np.concatenate(cols),
                np.concatenate(vals),
                0.0,
                f"G3[j={j},a={a}]",
            )

    # Sandwich (per source phase): V_jk(a,n,h) <= G_jk(a,n,h) <= (N-n) V_jk(a,n,h)
    # (n_j * 1{n_j>=1} is n_j, and 1{n_j>=1} <= n_j <= (N-n) 1{n_j>=1} given n_k=n.)
    for j in range(M):
        Kj = network.stations[j].phases
        for k in range(M):
            if j == k:
                continue
            Kk = network.stations[k].phases
            for n in range(N + 1):
                for h in range(Kk):
                    for a in range(Kj):
                        v_col = int(vi.V(j, k, a, n, h))
                        g_col = int(vi.G(j, k, a, n, h))
                        # V - G <= 0
                        ub.add_row(
                            [v_col, g_col],
                            [1.0, -1.0],
                            0.0,
                            f"S1[j={j},k={k},a={a},n={n},h={h}]",
                        )
                        # G - (N - n) V <= 0
                        ub.add_row(
                            [g_col, v_col],
                            [1.0, -float(N - n)],
                            0.0,
                            f"S2[j={j},k={k},a={a},n={n},h={h}]",
                        )

    # G4: moment consistency — sum_{n,h} G_jk(a, n, h) = E[n_j 1{h_j=a}]
    #     = sum_m m * pi_j(m, a), for every ordered pair and source phase.
    for j in range(M):
        Kj = network.stations[j].phases
        n_pos = np.arange(1, N + 1)
        for k in range(M):
            if j == k:
                continue
            Kk = network.stations[k].phases
            nn, hh = np.meshgrid(np.arange(N + 1), np.arange(Kk), indexing="ij")
            for a in range(Kj):
                g_cols = vi.G(j, k, a, nn.ravel(), hh.ravel())
                cols = np.concatenate([g_cols, vi.pi(j, n_pos, a)])
                vals = np.concatenate(
                    [np.ones(g_cols.size), -n_pos.astype(float)]
                )
                eq.add_row(cols, vals, 0.0, f"G4[j={j},k={k},a={a}]")

    # ------------------------------------------------------------------ #
    # Families SC/TC: triple-variable consistency (when triples enabled)
    # ------------------------------------------------------------------ #
    if vi.triples:
        K = network.phase_orders
        for i in range(M):
            for j in range(M):
                for k in range(M):
                    if len({i, j, k}) != 3:
                        continue
                    Ki, Kj, Kk = K[i], K[j], K[k]
                    # SC1: sum_a S_ijk(e,a,n,h) = V_ik(e,n,h)
                    a_all = np.arange(Kj)
                    for e in range(Ki):
                        for n in range(N + 1):
                            for h in range(Kk):
                                cols = np.concatenate(
                                    [
                                        vi.S(i, j, k, e, a_all, n, h),
                                        [vi.V(i, k, e, n, h)],
                                    ]
                                )
                                vals = np.concatenate([np.ones(Kj), [-1.0]])
                                eq.add_row(
                                    cols, vals, 0.0,
                                    f"SC1[i={i},j={j},k={k},e={e},n={n},h={h}]",
                                )
                    e_all = np.arange(Ki)
                    for a in range(Kj):
                        for n in range(N + 1):
                            for h in range(Kk):
                                s_cols = vi.S(i, j, k, e_all, a, n, h)
                                vw_cols = np.array(
                                    [vi.V(j, k, a, n, h), vi.W(j, k, a, n, h)]
                                )
                                # SC2: sum_e S <= (V+W)_jk(a,n,h)
                                ub.add_row(
                                    np.concatenate([s_cols, vw_cols]),
                                    np.concatenate([np.ones(Ki), [-1.0, -1.0]]),
                                    0.0,
                                    f"SC2[i={i},j={j},k={k},a={a},n={n},h={h}]",
                                )
                                # SC3: (V+W)_jk - sum_e S <= sum_e W_ik(e,n,h)
                                w_ik = vi.W(i, k, e_all, n, h)
                                ub.add_row(
                                    np.concatenate([vw_cols, s_cols, w_ik]),
                                    np.concatenate(
                                        [[1.0, 1.0], -np.ones(Ki), -np.ones(Ki)]
                                    ),
                                    0.0,
                                    f"SC3[i={i},j={j},k={k},a={a},n={n},h={h}]",
                                )
                                t_cols = vi.T(i, j, k, e_all, a, n, h)
                                # TC4: sum_e T <= G_jk(a,n,h)
                                ub.add_row(
                                    np.concatenate([t_cols, [vi.G(j, k, a, n, h)]]),
                                    np.concatenate([np.ones(Ki), [-1.0]]),
                                    0.0,
                                    f"TC4[i={i},j={j},k={k},a={a},n={n},h={h}]",
                                )
                                # TC5: G_jk - sum_e T <= (N-n) sum_e W_ik
                                ub.add_row(
                                    np.concatenate(
                                        [[vi.G(j, k, a, n, h)], t_cols, w_ik]
                                    ),
                                    np.concatenate(
                                        [[1.0], -np.ones(Ki), -float(N - n) * np.ones(Ki)]
                                    ),
                                    0.0,
                                    f"TC5[i={i},j={j},k={k},a={a},n={n},h={h}]",
                                )
                                # TC1: T <= (N-n-1) S pointwise
                                cap = max(N - n - 1, 0)
                                for e in range(Ki):
                                    ub.add_row(
                                        [
                                            int(vi.T(i, j, k, e, a, n, h)),
                                            int(vi.S(i, j, k, e, a, n, h)),
                                        ],
                                        [1.0, -float(cap)],
                                        0.0,
                                        f"TC1[i={i},j={j},k={k},e={e},a={a},n={n},h={h}]",
                                    )
                    # SC4 / TC3: marginalize k away.
                    nn, hh = np.meshgrid(
                        np.arange(N + 1), np.arange(Kk), indexing="ij"
                    )
                    for e in range(Ki):
                        for a in range(Kj):
                            s_cols = vi.S(i, j, k, e, a, nn.ravel(), hh.ravel())
                            v_ij = vi.V(i, j, e, np.arange(N + 1), a)
                            eq.add_row(
                                np.concatenate([s_cols, v_ij]),
                                np.concatenate(
                                    [np.ones(s_cols.size), -np.ones(N + 1)]
                                ),
                                0.0,
                                f"SC4[i={i},j={j},k={k},e={e},a={a}]",
                            )
                            t_cols = vi.T(i, j, k, e, a, nn.ravel(), hh.ravel())
                            eq.add_row(
                                np.concatenate([t_cols, v_ij]),
                                np.concatenate(
                                    [
                                        np.ones(t_cols.size),
                                        -np.arange(N + 1, dtype=float),
                                    ]
                                ),
                                0.0,
                                f"TC3[i={i},j={j},k={k},e={e},a={a}]",
                            )
        # TC2: population identity conditioned on (i busy, k state):
        #   sum_{j not in {i,k}} sum_a T_ijk(e,a,n,h)
        #     = (N - n) V_ik(e,n,h) - G_ik(e,n,h)
        for i in range(M):
            Ki = network.phase_orders[i]
            for k in range(M):
                if i == k:
                    continue
                Kk = network.phase_orders[k]
                js = [j for j in range(M) if j not in (i, k)]
                for e in range(Ki):
                    for n in range(N + 1):
                        for h in range(Kk):
                            t_cols = np.concatenate(
                                [
                                    vi.T(
                                        i, j, k, e,
                                        np.arange(network.phase_orders[j]), n, h,
                                    )
                                    for j in js
                                ]
                            )
                            cols = np.concatenate(
                                [
                                    t_cols,
                                    [vi.V(i, k, e, n, h), vi.G(i, k, e, n, h)],
                                ]
                            )
                            vals = np.concatenate(
                                [np.ones(t_cols.size), [-(N - n), 1.0]]
                            )
                            eq.add_row(
                                cols, vals, 0.0,
                                f"TC2[i={i},k={k},e={e},n={n},h={h}]",
                            )

    # ------------------------------------------------------------------ #
    # Family H: conditional first-moment drift balances
    # ------------------------------------------------------------------ #
    # Emitted per ordered pair (j, k) when expressible: j is queue-kind
    # and every third-party source into j or k is queue-kind.
    for j in range(M):
        st_j = network.stations[j]
        if st_j.kind != "queue":
            continue
        Kj = st_j.phases
        D0j, D1j = st_j.service.D0, st_j.service.D1
        e_j = D1j.sum(axis=1)
        d0out_j = D0j.sum(axis=1) - np.diag(D0j)
        for k in range(M):
            if j == k:
                continue
            third = [i for i in range(M) if i not in (j, k)]
            feeders = [
                i for i in third if routing[i, j] > 0.0 or routing[i, k] > 0.0
            ]
            if any(network.stations[i].kind != "queue" for i in feeders):
                continue  # third-party delay source: moment terms inexpressible
            if feeders and not vi.triples:
                continue  # needs S/T variables
            st_k = network.stations[k]
            Kk = st_k.phases
            D0k, D1k = st_k.service.D0, st_k.service.D1
            e_k = D1k.sum(axis=1)
            d0out_k = D0k.sum(axis=1) - np.diag(D0k)
            qkk = routing[k, k]
            p_jj = routing[j, j]
            p_jk = routing[j, k]
            p_kj = routing[k, j]
            p_other = 1.0 - p_jj - p_jk
            c_k = st_k.rate_scale(np.arange(N + 1))
            alpha_all = np.arange(Kj)
            for a in range(Kj):
                for n in range(N + 1):
                    for h in range(Kk):
                        cols: list[np.ndarray] = []
                        vals: list[np.ndarray] = []

                        def add(c, v):
                            cols.append(np.atleast_1d(np.asarray(c, dtype=np.int64)))
                            vals.append(np.atleast_1d(np.asarray(v, dtype=float)))

                        # (1) j completes: loss at rate e_j(a).
                        add(vi.G(j, k, a, n, h), -e_j[a])
                        # gains: self-route keeps n_j; others drop n_j by 1.
                        d1_in = D1j[:, a]  # alpha -> a completion rates
                        if p_jj > 0.0:
                            add(vi.G(j, k, alpha_all, n, h), p_jj * d1_in)
                        if p_other > 0.0:
                            add(vi.G(j, k, alpha_all, n, h), p_other * d1_in)
                            add(vi.V(j, k, alpha_all, n, h), -p_other * d1_in)
                        if p_jk > 0.0 and n >= 1:
                            add(vi.G(j, k, alpha_all, n - 1, h), p_jk * d1_in)
                            add(vi.V(j, k, alpha_all, n - 1, h), -p_jk * d1_in)

                        # (2) j hidden phase transitions.
                        for alpha in range(Kj):
                            if alpha != a and D0j[alpha, a] != 0.0:
                                add(vi.G(j, k, alpha, n, h), D0j[alpha, a])
                        if d0out_j[a] != 0.0:
                            add(vi.G(j, k, a, n, h), -d0out_j[a])

                        # (3) k transitions at level n (rate scale c_k).
                        if c_k[n] != 0.0:
                            own = (
                                (1.0 - qkk) * e_k[h]
                                + qkk * (e_k[h] - D1k[h, h])
                                + d0out_k[h]
                            )
                            add(vi.G(j, k, a, n, h), -c_k[n] * own)
                            for g in range(Kk):
                                if g == h:
                                    continue
                                rate_in = qkk * D1k[g, h] + D0k[g, h]
                                if rate_in != 0.0:
                                    add(vi.G(j, k, a, n, g), c_k[n] * rate_in)
                        if n + 1 <= N and c_k[n + 1] != 0.0:
                            g_all = np.arange(Kk)
                            coeff = c_k[n + 1] * D1k[:, h]
                            add(vi.G(j, k, a, n + 1, g_all), (1.0 - qkk) * coeff)
                            if p_kj > 0.0:
                                add(vi.V(j, k, a, n + 1, g_all), p_kj * coeff)
                                add(vi.W(j, k, a, n + 1, g_all), p_kj * coeff)

                        # (4) third-party arrivals into k (T terms).
                        for i in third:
                            p_ik = routing[i, k]
                            if p_ik <= 0.0:
                                continue
                            e_i = network.stations[i].service.D1.sum(axis=1)
                            eps = np.arange(network.phase_orders[i])
                            if n >= 1:
                                add(vi.T(i, j, k, eps, a, n - 1, h), p_ik * e_i)
                            add(vi.T(i, j, k, eps, a, n, h), -p_ik * e_i)

                        # (5) third-party arrivals into j (S terms).
                        for i in third:
                            p_ij = routing[i, j]
                            if p_ij <= 0.0:
                                continue
                            e_i = network.stations[i].service.D1.sum(axis=1)
                            eps = np.arange(network.phase_orders[i])
                            add(vi.S(i, j, k, eps, a, n, h), p_ij * e_i)

                        eq.add_row(
                            np.concatenate(cols),
                            np.concatenate(vals),
                            0.0,
                            f"H[j={j},k={k},a={a},n={n},h={h}]",
                        )

    # ------------------------------------------------------------------ #
    # Optional redundant families (ablation / numerics experiments)
    # ------------------------------------------------------------------ #
    if include_redundant:
        # Family B: phase-aggregated cut balance at each level.
        for k in range(M):
            st_k = network.stations[k]
            Kk = st_k.phases
            e_k = st_k.service.D1.sum(axis=1)
            qkk = routing[k, k]
            sources = [j for j in range(M) if j != k and routing[j, k] > 0.0]
            levels = np.arange(N + 1)
            c_k = st_k.rate_scale(levels)
            for n in range(1, N + 1):
                cols: list[np.ndarray] = []
                vals: list[np.ndarray] = []
                for h in range(Kk):
                    for j in sources:
                        c_j, v_j = _source_arrival_terms(network, vi, j, k, n - 1, h)
                        cols.append(c_j)
                        vals.append(routing[j, k] * v_j)
                h_all = np.arange(Kk)
                cols.append(vi.pi(k, n, h_all))
                vals.append(-c_k[n] * (1.0 - qkk) * e_k)
                eq.add_row(
                    np.concatenate(cols),
                    np.concatenate(vals),
                    0.0,
                    f"B[k={k},n={n}]",
                )
        # Family F: throughput flow balance X_k = sum_j p_jk X_j.
        xexprs = []
        for k in range(M):
            st_k = network.stations[k]
            Kk = st_k.phases
            e_k = st_k.service.D1.sum(axis=1)
            levels = np.arange(N + 1)
            c_k = st_k.rate_scale(levels)
            nn, hh = np.meshgrid(levels, np.arange(Kk), indexing="ij")
            cols = vi.pi(k, nn.ravel(), hh.ravel())
            vals = (c_k[:, None] * e_k[None, :]).ravel()
            xexprs.append((cols, vals))
        for k in range(M - 1):  # one equation is redundant by construction
            cols = [xexprs[k][0]]
            vals = [xexprs[k][1]]
            for j in range(M):
                if routing[j, k] > 0.0:
                    cols.append(xexprs[j][0])
                    vals.append(-routing[j, k] * xexprs[j][1])
            eq.add_row(
                np.concatenate(cols), np.concatenate(vals), 0.0, f"F[k={k}]"
            )

    A_eq, b_eq = eq.matrix(vi.size)
    A_ub, b_ub = ub.matrix(vi.size)
    lb, hi = vi.default_bounds()
    return ConstraintSystem(
        vi=vi,
        A_eq=A_eq,
        b_eq=b_eq,
        A_ub=A_ub,
        b_ub=b_ub,
        lb=lb,
        ub=hi,
        eq_labels=eq.labels,
        ub_labels=ub.labels,
    )

#!/usr/bin/env python
"""End-to-end smoke of the persistent LP backend (``smoke-lp``).

Drives the persistent LP solve path over an M = 3 ``kron-ring`` population
sweep in the dual-simplex regime (where the cross-N basis lineage is
active) and proves that

1. the persistent HiGHS backend answers every sweep point within 1e-9
   of the stateless ``linprog`` oracle in ``tests/oracles/lp.py`` (both
   bound directions);
2. the basis lineage genuinely warm-starts: every registry solve past
   the first reports mapped warm starts, and the sweep's total simplex
   iteration count beats the cold (lineage-cleared) sweep by the gated
   factor — a deterministic speedup witness, immune to timing noise;
3. a fresh registry replays every solve byte-identically from the disk
   cache.

Exit status 0 means the warm-started solve path works end to end.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "tests"):  # the package and its oracles
    if path.is_dir() and str(path) not in sys.path:
        sys.path.insert(0, str(path))

M = 3
POPULATIONS = (6, 7, 8, 9, 10)
METRICS = ("throughput[0]", "queue_length[1]")
AGREEMENT = 1e-9
#: Cold/warm total-iteration ratio the lineage must clear.  Only the two
#: min solves per point lineage-warm-start (the max solves ride the kept
#: pair basis in both sweeps, and bases are never shared across metrics),
#: so the whole-sweep ratio is diluted to a measured ~1.4x; the margin
#: admits solver-version drift, not regressions to cold starts.
ITERATION_GATE = 1.25


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-smoke-lp-")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")

    from oracles.lp import linprog_bounds
    from repro.core.lpbackend import get_lp_lineage_store, highs_impl
    from repro.experiments.scaling import ring_of_maps
    from repro.runtime import SolverRegistry
    from repro.runtime.cache import ResultCache

    print(f"  persistent backend: HiGHS via {highs_impl()}")

    nets = {N: ring_of_maps(M, N) for N in POPULATIONS}

    # 1. Stateless linprog oracle: a fresh solve per bound, no cache.
    t0 = time.perf_counter()
    baseline = {
        N: linprog_bounds(nets[N], METRICS, triples=False) for N in POPULATIONS
    }
    t_oracle = time.perf_counter() - t0
    print(f"  linprog oracle: {len(POPULATIONS)} points, {t_oracle:.2f}s")

    # 2a. Cold persistent sweep: lineage cleared before every point, so
    # each solve starts from scratch — the iteration yardstick.
    reg_cold = SolverRegistry(cache=None)
    iters_cold = 0
    for N in POPULATIONS:
        get_lp_lineage_store().clear()
        res = reg_cold.solve(nets[N], "lp", metrics=METRICS, triples=False)
        iters_cold += res.extra["lp_iterations"]
        if res.extra["lp_warm_starts"]:
            print("FAIL: cold sweep reported warm starts", file=sys.stderr)
            return 1

    # 2b. Warm persistent sweep (cached): lineage flows N -> N+1.
    get_lp_lineage_store().clear()
    registry = SolverRegistry(cache=ResultCache())
    iters_warm = 0
    warm_starts = 0
    t0 = time.perf_counter()
    sweep = {}
    for i, N in enumerate(POPULATIONS):
        res = registry.solve(nets[N], "lp", metrics=METRICS, triples=False)
        sweep[N] = res
        iters_warm += res.extra["lp_iterations"]
        warm_starts += res.extra["lp_warm_starts"]
        if res.extra["backend"] != "highs":
            print(f"FAIL: backend resolved to {res.extra['backend']!r}",
                  file=sys.stderr)
            return 1
        if i > 0 and not res.extra["lp_warm_starts"]:
            print(f"FAIL: sweep point N={N} did not warm-start",
                  file=sys.stderr)
            return 1
    t_warm = time.perf_counter() - t0
    print(f"  persistent sweep: {warm_starts} warm starts, "
          f"{iters_warm} iterations (cold: {iters_cold}), {t_warm:.2f}s")

    # 1e-9 agreement with the stateless oracle, every point and bound.
    worst = 0.0
    for N in POPULATIONS:
        for a, b in (
            (baseline[N]["throughput[0]"], sweep[N].throughput_interval(0)),
            (baseline[N]["queue_length[1]"], sweep[N].queue_length_interval(1)),
        ):
            worst = max(worst, abs(a.lower - b.lower), abs(a.upper - b.upper))
    if worst > AGREEMENT:
        print(f"FAIL: oracle disagreement {worst:.2e} > {AGREEMENT:.0e}",
              file=sys.stderr)
        return 1
    print(f"  oracle agreement: worst gap {worst:.2e} (gate {AGREEMENT:.0e})")

    # Gated speedup: the deterministic iteration count, not wall clock.
    ratio = iters_cold / max(iters_warm, 1)
    if ratio < ITERATION_GATE:
        print(f"FAIL: warm-start iteration ratio {ratio:.2f}x "
              f"< {ITERATION_GATE}x", file=sys.stderr)
        return 1
    print(f"  warm-start win: {ratio:.2f}x fewer simplex iterations "
          f"(gate {ITERATION_GATE}x)")

    # 3. Warm replay from a fresh registry: every solve must come back
    # from disk, byte-identical to the original.
    replay_reg = SolverRegistry(cache=ResultCache())
    for N in POPULATIONS:
        replay = replay_reg.solve(nets[N], "lp", metrics=METRICS, triples=False)
        if not replay.from_cache or replay.extra["cache_tier"] != "disk":
            print(f"FAIL: N={N} did not replay from the disk cache",
                  file=sys.stderr)
            return 1
        if replay.to_dict() != sweep[N].to_dict():
            print(f"FAIL: N={N} replayed payload differs", file=sys.stderr)
            return 1
    print("  disk replay (fresh registry): byte-identical payloads")

    print(f"smoke OK: persistent sweep {ratio:.1f}x fewer iterations, "
          f"agreement {worst:.1e}, replay byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

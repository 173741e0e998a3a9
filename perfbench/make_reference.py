"""Regenerate the benchmark's stored inputs and reference answers.

Writes two files under ``perfbench/data/``:

* ``catalog_pairs.json`` — the (scenario, population, method) pairs the
  ``catalog-cache`` workload solves: every candidate from
  ``workloads.catalog_candidates()`` that the registry accepts.  Typed
  refusals (``NotSupportedError``/``UnsupportedNetworkError``) are left
  out, so the workload only times solves that are meant to succeed.
* ``ctmc_reference.json`` — the answers of every ``ctmc-exact`` item, the
  stored values its correctness check compares against.

Run from the repository root::

    python3 perfbench/make_reference.py

Regenerate only when an answer is meant to change, and say why in the
change that does it.
"""

from __future__ import annotations

import json
import sys

import benchenv


def main() -> int:
    benchenv.prepare()
    from repro.runtime import SolverRegistry
    from repro.scenarios import get_scenario
    from repro.utils.errors import NotSupportedError, UnsupportedNetworkError

    import workloads

    reg = SolverRegistry(cache=None)
    pairs, refused = [], []
    for name, pop, method in workloads.catalog_candidates():
        net = get_scenario(name).network(pop)
        opts = {"rng": 0, "horizon_events": 100, "warmup_events": 0} if method == "sim" else {}
        try:
            reg.solve(net, method, **opts)
        except (NotSupportedError, UnsupportedNetworkError):
            refused.append([name, pop, method])
            continue
        pairs.append([name, pop, method])
    rows = ",\n".join(json.dumps(p) for p in pairs)
    workloads.CATALOG_PAIRS.write_text(
        f'{{"max_states": {workloads.CATALOG_MAX_STATES}, '
        f'"refused": {len(refused)},\n"pairs": [\n{rows}\n]}}\n'
    )
    print(f"catalog: {len(pairs)} accepted pairs, {len(refused)} typed refusals")

    reference = {}
    for smoke in (False, True):
        wl = workloads.build("ctmc-exact", seed=0, smoke=smoke)
        results = [reg.solve(i.network, i.method, **i.opts) for i in wl.items]
        for item, res in zip(wl.items, results):
            reference[item.label] = workloads.reference_view(res.to_dict())
        wrong = wl.check(wl.items, results, reference)
        if wrong:
            raise SystemExit(f"inconsistent ctmc-exact answers: {wrong}")
    workloads.CTMC_REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")
    print(f"ctmc-exact: {len(reference)} reference answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke-size self-test of the benchmark harness.

For every workload, at smoke size:

* an untraced run prints every end-to-end metric of ``BENCHMARK.json``
  with its unit, and no others, with ``correct`` true and ``failed`` 0;
* a traced run does the same for every per-layer metric and writes a
  trace file that ``python -m repro.obs validate`` accepts;
* a run with one corrupted answer reports ``failed`` > 0 (so
  ``error_frac`` > 0) and ``correct`` false.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import benchenv

RUN = benchenv.ROOT / "perfbench" / "run.py"


def run(workload: str, *flags: str) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--smoke", *flags]
    proc = subprocess.run(cmd, cwd=benchenv.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"unexpected result keys {sorted(out)}")
    return out


def expect_metrics(out: dict, spec: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        raise AssertionError(f"{label}: metrics/units {got} != {want}")
    for name, m in out["metrics"].items():
        if not isinstance(m["value"], float) or not math.isfinite(m["value"]):
            raise AssertionError(f"{label}: {name} = {m['value']!r}")


def main() -> int:
    bench = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(benchenv.SRC))
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, spec in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            out = run(wl, "--trace", trace)
            expect_metrics(out, spec, f"{wl} trace={trace}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                raise AssertionError(f"{wl} trace={trace}: {out}")
        trace_file = benchenv.OUT / f"trace-{wl}-seed3.jsonl"
        subprocess.run([sys.executable, "-m", "repro.obs", "validate", str(trace_file)],
                       check=True, env=env, timeout=120)
        out = run(wl, "--trace", "0", "--corrupt")
        if out["correct"] or out["failed"] < 1:
            raise AssertionError(f"{wl}: a corrupted answer went unnoticed: {out}")
        print(f"ok {wl}: metrics, trace, corruption "
              f"({out['failed']}/{out['attempted']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Noise-aware perf-regression sentinel over the history ledger.

Two complementary checks, both exposed through ``python -m repro.obs
sentinel`` and wired into CI/`make smoke-obs-history`:

* :func:`check_artifact` — the *trajectory* gate.  Compares a fresh
  bench artifact against the latest ledger baseline for the same
  (benchmark, preset, case) with per-case tolerance bands on the timing
  fields (``t_*_s``).  A regression needs both a relative breach
  (fresh > ``ratio`` x baseline) and an absolute one (fresh - baseline >
  ``floor_s``), so microsecond-scale cases cannot trip the gate on
  scheduler noise.
* :func:`check_baseline_gates` — the *invariant* gate.  The declarative
  port of the per-bench assertions CI used to carry as inline python
  heredocs: required cases present, deterministic counters in range,
  speedup factors above their floors.  Deterministic facts are checked
  on every preset; wall-clock claims only on the large preset, and
  quick artifacts therefore pass trivially where only timing gates
  exist (that is the documented "ignore quick artifacts" behaviour).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.history import (
    Ledger,
    timing_fields,
    validate_artifact,
)

__all__ = [
    "BASELINE_GATES",
    "DEFAULT_FLOOR_S",
    "DEFAULT_RATIO",
    "KRON_MEMORY_WIN_FLOOR",
    "SentinelReport",
    "check_artifact",
    "check_baseline_gates",
]

#: Relative tolerance band: fresh timing above ``ratio`` x baseline is a
#: candidate regression.  1.5x absorbs normal CI-runner variance.
DEFAULT_RATIO = 1.5

#: Absolute band: the excess must also exceed this many seconds, so
#: sub-50ms cases can never regress on noise alone.
DEFAULT_FLOOR_S = 0.05


@dataclass
class SentinelReport:
    """Outcome of one sentinel run: per-case findings plus verdict."""

    source: str
    regressions: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no regression (notes alone never fail the gate)."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable multi-line summary (CLI output)."""
        lines = [f"sentinel: {self.source}"]
        lines += [f"  REGRESSION {msg}" for msg in self.regressions]
        lines += [f"  {msg}" for msg in self.notes]
        lines.append(
            f"  verdict: {'FAIL' if self.regressions else 'PASS'} "
            f"({len(self.regressions)} regression(s))"
        )
        return "\n".join(lines)


def check_artifact(
    artifact_path: "Path | str",
    ledger: "Ledger | None" = None,
    *,
    ratio: float = DEFAULT_RATIO,
    floor_s: float = DEFAULT_FLOOR_S,
) -> SentinelReport:
    """Tolerance-band comparison of a fresh artifact vs the ledger baseline.

    Every entry's timing fields (``t_*_s``) are compared against the
    latest ledger record for the same (benchmark, preset, case,
    case_index) — excluding the fresh artifact itself if it was already
    ingested.  Cases or fields without a baseline are reported as notes,
    never failures: a brand-new bench must be ingestable before it can
    be gated.
    """
    ledger = ledger if ledger is not None else Ledger()
    path = Path(artifact_path)
    raw = path.read_bytes()
    payload = validate_artifact(json.loads(raw.decode()), source=path.name)
    sha = hashlib.sha256(raw).hexdigest()[:16]
    report = SentinelReport(source=path.name)
    benchmark, preset = payload["benchmark"], payload["preset"]
    counts: dict[str, int] = {}
    for entry in payload["entries"]:
        case = entry["case"]
        index = counts.get(case, 0)
        counts[case] = index + 1
        fresh = timing_fields(entry)
        base_rec = ledger.baseline_for(
            benchmark, preset, case, index, exclude_sha=sha
        )
        if base_rec is None:
            # The only ledger record may be this very content (the
            # "ingest then rerun unmodified" flow): a self-comparison is
            # trivially within band, which is exactly the verdict an
            # unmodified rerun should get.
            base_rec = ledger.baseline_for(benchmark, preset, case, index)
        label = f"{case}#{index}" if index else case
        if base_rec is None:
            if fresh:
                report.notes.append(f"{label}: no baseline in ledger (new case)")
            continue
        base = timing_fields(base_rec["fields"])
        for name, fresh_v in sorted(fresh.items()):
            base_v = base.get(name)
            if base_v is None:
                report.notes.append(f"{label}.{name}: no baseline field")
                continue
            if fresh_v > base_v * ratio and fresh_v - base_v > floor_s:
                report.regressions.append(
                    f"{label}.{name}: {fresh_v:.4g}s vs baseline "
                    f"{base_v:.4g}s @ {base_rec['rev']} "
                    f"({fresh_v / base_v:.2f}x > {ratio:g}x band)"
                )
            else:
                report.notes.append(
                    f"{label}.{name}: {fresh_v:.4g}s within band of "
                    f"{base_v:.4g}s"
                )
    return report


# -- declarative baseline gates (the former CI heredocs) -------------------


def _entry(payload: dict, case: str) -> "dict | None":
    """First entry of ``case`` in an artifact, or ``None``."""
    return next((e for e in payload["entries"] if e["case"] == case), None)


def _require_cases(payload: dict, cases: set[str]) -> list[str]:
    """Failure messages for any required case missing from the artifact."""
    have = {e["case"] for e in payload["entries"]}
    return [f"missing required case {c!r}" for c in sorted(cases - have)]


def _gates_lp_scaling(payload: dict) -> list[str]:
    """LP benchmark invariants (speedups large-only, evidence any preset)."""
    fails = _require_cases(
        payload,
        {
            "lp_scaling",
            "assembly_speedup",
            "lp_persistent",
            "lp_persistent_sweep",
            "lp_warm_iterations",
        },
    )
    if fails:
        return fails
    for e in payload["entries"]:
        if e["case"] == "lp_scaling" and not (
            e.get("method_used") and e.get("lp_iterations", 0) > 0
        ):
            fails.append(f"lp_scaling entry lacks solve evidence: {e}")
    if payload["preset"] == "large":
        sweep = _entry(payload, "lp_persistent_sweep")
        if sweep.get("sweep_speedup", 0.0) < 3.0:
            fails.append(
                f"persistent sweep speedup {sweep.get('sweep_speedup')!r} < 3.0"
            )
        for e in payload["entries"]:
            if e["case"] == "lp_persistent" and not (
                e.get("cold_iterations", 0) > 0 and e.get("warm_iterations", 0) > 0
            ):
                fails.append(f"lp_persistent entry lacks iteration evidence: {e}")
        warm = _entry(payload, "lp_warm_iterations")
        if not warm.get("iterations_cold", 0) > 1.2 * warm.get(
            "iterations_warm", 0
        ):
            fails.append(f"warm-start iteration win went missing: {warm}")
    return fails


def _gates_transient(payload: dict) -> list[str]:
    """Transient benchmark invariants (matvec counts are deterministic)."""
    fails = _require_cases(
        payload, {"transient_grid_reuse", "transient_registry_cache"}
    )
    if fails:
        return fails
    reuse = _entry(payload, "transient_grid_reuse")
    if reuse.get("matvec_speedup", 0.0) < 5.0:
        fails.append(
            f"grid-reuse matvec speedup {reuse.get('matvec_speedup')!r} < 5.0"
        )
    return fails


def _gates_fluid(payload: dict) -> list[str]:
    """Fluid-tier invariants (million-user wall clock large-only)."""
    fails = _require_cases(
        payload, {"fluid_million", "fluid_small_agreement", "fluid_convergence"}
    )
    if fails:
        return fails
    million = _entry(payload, "fluid_million")
    if million.get("states_enumerated"):
        fails.append(f"fluid solve enumerated the CTMC state space: {million}")
    small = _entry(payload, "fluid_small_agreement")
    if not small.get("max_rel_error", 1.0) <= 1e-3:
        fails.append(f"small-N exactness margin lost: {small}")
    conv = _entry(payload, "fluid_convergence")
    if not (
        conv.get("monotone")
        and conv.get("gap_last", 1.0) < conv.get("gap_first", 0.0)
    ):
        fails.append(f"doubling-population convergence lost: {conv}")
    if payload["preset"] == "large":
        if million.get("population") != 1_000_000:
            fails.append(f"large fluid artifact is not the million-user run: {million}")
        if not million.get("saturated"):
            fails.append(f"million-user scenario no longer saturated: {million}")
        if not million.get("t_wall_s", 1e9) < 30.0:
            fails.append(f"million-user solve over the 30s ceiling: {million}")
        if not million.get("fluid_dim", 1e9) < 10:
            fails.append(f"fluid dimension blew up: {million}")
    return fails


#: Per-preset floor of the kron operator-vs-CSR memory win, read by both
#: this gate and ``benchmarks/test_bench_kron.py``.  The win is capped by
#: the per-state CSR fill, because the operator's own floor is its
#: closed-form diagonal (~10 bytes/state): ~13x at the large ring shape.
#: Each floor sits just under its shape's ceiling.
KRON_MEMORY_WIN_FLOOR = {"quick": 4.0, "large": 10.0}


def _gates_kron(payload: dict) -> list[str]:
    """Kronecker-backend invariants (memory win is deterministic)."""
    fails = _require_cases(payload, {"kron_memory_win", "kron_registry_solves"})
    if fails:
        return fails
    win = _entry(payload, "kron_memory_win")
    floor = KRON_MEMORY_WIN_FLOOR[payload["preset"]]
    if win.get("memory_win_factor", 0.0) < floor:
        fails.append(
            f"operator-vs-CSR memory win {win.get('memory_win_factor')!r} < {floor}"
        )
    solves = _entry(payload, "kron_registry_solves")
    if solves.get("backend") not in ("auto", "operator"):
        fails.append(f"registry dispatched an unexpected backend: {solves}")
    return fails


#: Per-benchmark invariant checks; each maps an artifact payload to a
#: list of failure strings (empty = pass).  Benchmarks without an entry
#: are schema-validated only.
BASELINE_GATES = {
    "lp_scaling": _gates_lp_scaling,
    "transient": _gates_transient,
    "fluid": _gates_fluid,
    "kron": _gates_kron,
}


def check_baseline_gates(artifact_path: "Path | str") -> SentinelReport:
    """Run the declarative invariant gates over one artifact.

    Validates the envelope, then applies the benchmark's
    :data:`BASELINE_GATES` entry.  Unknown benchmarks pass with a note —
    a new bench gets schema validation for free and adds its gates here
    when it has invariants worth enforcing.
    """
    path = Path(artifact_path)
    payload = validate_artifact(
        json.loads(path.read_text()), source=path.name
    )
    report = SentinelReport(source=path.name)
    gate = BASELINE_GATES.get(payload["benchmark"])
    if gate is None:
        report.notes.append(
            f"no baseline gates registered for benchmark "
            f"{payload['benchmark']!r} (schema-validated only)"
        )
        return report
    report.regressions.extend(gate(payload))
    if report.ok:
        report.notes.append(
            f"baseline gates OK ({payload['benchmark']}, "
            f"preset={payload['preset']}, {len(payload['entries'])} entries)"
        )
    return report

"""Per-layer tracing from outside the program, for the benchmark's traced run.

:func:`install` wraps the public entry points of each layer under
``src/repro`` — at the name its caller looks up — so that every call opens
a ``bench.<layer>`` span on the active :mod:`repro.obs` telemetry.  Nothing
under ``src/`` changes; with telemetry disabled a wrapper just calls
through.  :func:`layer_metrics` turns the recorded span trees into self
times (a span's duration minus the ``bench.*`` spans nested in it) and
work counts.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs

PREFIX = "bench."

#: (module, attribute path, layer span) — each layer's public entry points,
#: patched where the caller looks the name up.
PATCHES = (
    ("repro.scenarios.registry", "Scenario.network", "scenarios.build"),
    ("repro.runtime.registry", "fingerprint_solve", "runtime.fingerprint"),
    ("repro.runtime.cache", "ResultCache.lookup", "runtime.cache_lookup"),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache_put"),
    ("repro.runtime.registry", "SolveResult.from_dict", "runtime.replay_decode"),
    ("repro.transient.result", "TransientResult.from_dict", "runtime.replay_decode"),
    ("repro.runtime.batch", "BatchLPSolver.__init__", "runtime.batch"),
    ("repro.runtime.batch", "BatchLPSolver.bound_specs", "runtime.batch"),
    ("repro.core.assembly", "AssemblyCache.plan_for", "core.assembly"),
    ("repro.core.assembly", "AssemblyPlan.assemble", "core.assembly"),
    ("repro.runtime.batch", "VariableIndex", "core.assembly"),
    # model hand-off to HiGHS counts as solver time, like the solves
    ("repro.core.lpbackend", "PersistentLP.__init__", "core.lp_solve"),
    ("repro.core.lpbackend", "PersistentLP.solve", "core.lp_solve"),
    ("repro.runtime.batch", "solve_lp_core", "core.lp_solve"),
    ("repro.network.statespace", "NetworkStateSpace.__init__", "network.statespace"),
    ("repro.network.statespace", "StateSpaceCache.space_for", "network.statespace"),
    ("repro.network.exact", "build_generator", "network.generator_build"),
    ("repro.transient.metrics", "build_generator", "network.generator_build"),
    ("repro.network.kron", "kronecker_generator", "network.kron_build"),
    ("repro.transient.metrics", "kronecker_generator", "network.kron_build"),
    ("repro.network.exact", "steady_state_ctmc", "markov.ctmc"),
    ("repro.transient.metrics", "steady_state_ctmc", "markov.ctmc"),
    ("repro.markov.kronop", "KroneckerGenerator._matvec", "markov.kron_matvec"),
    ("repro.markov.kronop", "KroneckerGenerator._rmatvec", "markov.kron_matvec"),
    ("repro.transient.metrics", "transient_grid", "transient.grid"),
    ("repro.runtime.registry", "simulate", "sim.run"),
    # looked up when a SolverRegistry is constructed: install() first
    ("repro.fluid.solver", "solve_fluid", "fluid.solve"),
    ("repro.runtime.registry", "solve_open_network", "qbd.solve"),
    ("repro.qbd.mapm1", "solve_qbd", "qbd.solve"),
    ("repro.qbd.mapmap1", "solve_qbd", "qbd.solve"),
    ("repro.runtime.registry", "mva", "baselines.solve"),
    ("repro.runtime.registry", "aba_bounds", "baselines.solve"),
    ("repro.runtime.registry", "bjb_bounds", "baselines.solve"),
    ("repro.runtime.registry", "decomposition", "baselines.solve"),
)


def _ctmc_layer(args, kwargs) -> str:
    Q = args[0] if args else kwargs["Q"]
    if isinstance(Q, spla.LinearOperator) and not sp.issparse(Q):
        return "markov.ctmc_operator"
    return "markov.ctmc_direct"


def _annotate(layer: str, span, args, out) -> None:
    if layer == "markov.kron_matvec":
        op = args[0]
        # factor storage read once, x read and y written once
        span.set("bytes", int(op.nbytes) + 16 * int(op.shape[0]))
    elif layer == "sim.run":
        span.set("events", int(out.n_events))


def _wrap(fn, layer: str):
    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        tele = obs.get_telemetry()
        if not tele.enabled:
            return fn(*args, **kwargs)
        name = _ctmc_layer(args, kwargs) if layer == "markov.ctmc" else layer
        with tele.span(PREFIX + name) as span:
            out = fn(*args, **kwargs)
            _annotate(name, span, args, out)
            return out

    return wrapper


def install() -> None:
    """Wrap every entry point in :data:`PATCHES` (idempotent per process)."""
    for module_name, path, layer in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if getattr(raw, "__bench_layer__", None) or getattr(
            getattr(raw, "__func__", None), "__bench_layer__", None
        ):
            continue
        if isinstance(raw, classmethod):
            inner = _wrap(raw.__func__, layer)
            inner.__bench_layer__ = layer
            wrapped = classmethod(inner)
        else:
            wrapped = _wrap(raw, layer)
            wrapped.__bench_layer__ = layer
        setattr(owner, attr, wrapped)


# ---------------------------------------------------------------------- #
# span trees -> per-layer numbers
# ---------------------------------------------------------------------- #
def bench_spans(roots) -> list:
    """``[(span, layer, self_s, nearest bench ancestor layer)]`` in tree order."""
    out = []

    def visit(span, parent):
        node = parent
        if span.name.startswith(PREFIX):
            node = [span, span.name[len(PREFIX):], span.duration_s or 0.0,
                    None if parent is None else parent[1]]
            if parent is not None:
                parent[2] -= span.duration_s or 0.0
            out.append(node)
        for child in span.children:
            visit(child, node)

    for root in roots:
        visit(root, None)
    return [tuple(n) for n in out]


LAYER_TIMES = {
    "runtime.fingerprint_s": "runtime.fingerprint",
    "runtime.cache_lookup_s": "runtime.cache_lookup",
    "runtime.replay_decode_s": "runtime.replay_decode",
    "runtime.cache_put_s": "runtime.cache_put",
    "runtime.batch_self_s": "runtime.batch",
    "core.lp_solve_s": "core.lp_solve",
    "core.assembly_s": "core.assembly",
    "network.statespace_s": "network.statespace",
    "network.generator_build_s": "network.generator_build",
    "network.kron_build_s": "network.kron_build",
    "markov.ctmc_direct_s": "markov.ctmc_direct",
    "markov.ctmc_operator_s": "markov.ctmc_operator",
    "markov.kron_matvec_s": "markov.kron_matvec",
    "transient.grid_s": "transient.grid",
    "sim.run_s": "sim.run",
    "fluid.solve_s": "fluid.solve",
    "qbd.solve_s": "qbd.solve",
    "baselines.solve_s": "baselines.solve",
}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(telemetry, cold_results) -> dict:
    """Self times of the solve phases plus work counters, by metric name.

    ``cold_results`` are the cold-pass results; their ``extra`` fields
    carry the LP and CTMC work counters the adapters already report.
    """
    spans = [s for s in bench_spans(telemetry.roots) if s[1] != "setup"]
    totals: dict[str, float] = {}
    for _, layer, self_s, _ in spans:
        totals[layer] = totals.get(layer, 0.0) + self_s
    out = {metric: totals.get(layer, 0.0) for metric, layer in LAYER_TIMES.items()}

    matvecs = [s for s in spans if s[1] == "markov.kron_matvec"]
    out["markov.kron_matvecs"] = len(matvecs)
    out["markov.operator_applies"] = sum(
        1 for s in matvecs if s[3] == "markov.ctmc_operator"
    )
    out["markov.kron_bytes_per_matvec"] = (
        statistics.fmean(s[0].attributes["bytes"] for s in matvecs) if matvecs else 0.0
    )
    events = sum(s[0].attributes.get("events", 0) for s in spans if s[1] == "sim.run")
    out["sim.events_per_s"] = _ratio(events, out["sim.run_s"])

    counters = telemetry.snapshot().counters
    hits = counters.get("result_cache.memory_hit", 0) + counters.get(
        "result_cache.disk_hit", 0
    )
    out["runtime.cache_hit_ratio"] = _ratio(
        hits, hits + counters.get("result_cache.miss", 0)
    )
    out["runtime.cache_bytes_written"] = counters.get("result_cache.bytes_written", 0)

    extras = [r.extra for r in cold_results if r is not None]
    lp = [e for e in extras if "n_lp_solves" in e]
    solves = sum(e["n_lp_solves"] for e in lp)
    out["core.lp_solves"] = solves
    out["core.lp_iterations"] = sum(e["lp_iterations"] for e in lp)
    out["core.lp_fallbacks"] = sum(e["lp_fallbacks"] for e in lp)
    out["core.lp_warm_start_ratio"] = _ratio(sum(e["lp_warm_starts"] for e in lp), solves)
    out["core.assembly_plan_hit_ratio"] = _ratio(
        sum(bool(e["assembly_plan_cached"]) for e in lp), len(lp)
    )
    out["network.states"] = sum(e.get("n_states", 0) for e in extras)
    out["transient.matvecs"] = sum(e.get("n_matvecs", 0) for e in extras)
    return out


def setup_build_s(telemetry) -> float:
    """Median over the set-up repetitions of scenario-compile self time."""
    per_setup = []
    for root in telemetry.roots:
        if root.name == PREFIX + "setup":
            per_setup.append(sum(
                s[2] for s in bench_spans([root]) if s[1] == "scenarios.build"
            ))
    return statistics.median(per_setup) if per_setup else 0.0


# ---------------------------------------------------------------------- #
# machine-local reference kernels
# ---------------------------------------------------------------------- #
#: kron-ring shape for the kernel comparison (396,032 states): the shape of
#: the repository's published kernel figures, and still cheap to materialize.
KERNEL_SHAPE = {"population": 12, "n_stations": 6}
KERNEL_REPEATS = 21


def _median_time(fn, repeats: int = KERNEL_REPEATS) -> float:
    fn()  # warm caches and lazy set-up before timing
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_kernels(smoke: bool = False) -> dict:
    """Kronecker apply time against one CSR apply and one axpy pass.

    Times ``x @ Q`` (the row-convention apply the Krylov and
    uniformization loops use) three ways on the same vector: through the
    operator, through the materialized CSR matrix, and as one BLAS axpy
    over a state-length vector.
    """
    from scipy.linalg.blas import daxpy

    from repro.network.kron import kronecker_generator
    from repro.scenarios import get_scenario

    shape = dict(KERNEL_SHAPE, population=3) if smoke else KERNEL_SHAPE
    net = get_scenario("kron-ring").network(
        shape["population"], n_stations=shape["n_stations"]
    )
    op = kronecker_generator(net)
    QT = op.materialize().T.tocsr()
    x = np.random.default_rng(0).random(op.shape[0])
    y = np.zeros_like(x)
    t_kron = _median_time(lambda: op.rmatvec(x))
    t_csr = _median_time(lambda: QT @ x)
    t_axpy = _median_time(lambda: daxpy(x, y, a=1e-3), repeats=5 * KERNEL_REPEATS)
    return {
        "markov.kron_matvec_over_csr": t_kron / t_csr,
        "markov.kron_matvec_passes": t_kron / t_axpy,
        "kernel_states": int(op.shape[0]),
        "kernel_kron_s": t_kron,
        "kernel_csr_s": t_csr,
        "kernel_axpy_s": t_axpy,
    }

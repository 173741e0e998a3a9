"""The three benchmark workloads: what each one solves and how it is checked.

Every workload is a list of :class:`Item` — one registry solve each — built
from the public scenario API (``Scenario.network()``), plus a ``check``
that validates the cold answers outside the timed region.  The seed drives
every random input (the ``random-3q`` draw and every simulation seed); all
other inputs are fixed, so the same seed always gives the same items.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.network.statespace import expected_state_count
from repro.runtime import SolverRegistry, derive_seed
from repro.scenarios import get_scenario, get_scenario_registry
from repro.transient.solver import default_time_grid

DATA = Path(__file__).resolve().parent / "data"
CTMC_REFERENCE = DATA / "ctmc_reference.json"
CATALOG_PAIRS = DATA / "catalog_pairs.json"

#: Closed-form state count up to which ``exact``/``transient`` run on the
#: catalog, and up to which ``lp-sweep`` checks its bounds against exact.
CATALOG_MAX_STATES = 3_000
LP_CHECK_MAX_STATES = 20_000

#: Short seeded simulation horizon of the catalog workload.
SIM_HORIZON_EVENTS = 10_000
SIM_WARMUP_EVENTS = 1_000

#: Points of the default transient grid kept by ``ctmc-exact``.
CTMC_GRID_POINTS = 6

#: Relative/absolute tolerance of the stored-reference comparison.
REF_RTOL = 1e-6
REF_ATOL = 1e-9


@dataclass
class Item:
    """One registry solve: a compiled scenario point, a method, options."""

    scenario: str
    population: int
    method: str
    opts: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    network: object = None

    @property
    def label(self) -> str:
        backend = self.opts.get("backend")
        suffix = f"[{backend}]" if backend else ""
        return f"{self.scenario}/N={self.population}/{self.method}{suffix}"

    def compile(self) -> None:
        """Build the network through the public scenario API."""
        self.network = get_scenario(self.scenario).network(
            self.population, **self.overrides
        )


@dataclass
class Workload:
    name: str
    items: list
    #: ``check(items, results) -> {item index: reason}`` for wrong answers
    check: object
    #: recorded with the run (e.g. the ``random-3q`` draw actually used)
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# lp-sweep
# ---------------------------------------------------------------------- #
def one_map_random_rng(seed: int) -> int:
    """The first ``random-3q`` draw for ``seed`` with exactly one MAP(2) queue.

    The draw's phase structure sets the LP size: across seeds the sweep
    cost ranges over 10x with two or three MAP(2) queues.  Fixing the
    structure, and drawing only the parameters from the seed, keeps the
    run-to-run spread of ``wall_s`` inside the benchmark's bound.
    """
    scenario = get_scenario("random-3q")
    for k in range(10_000):
        rng = 1000 * int(seed) + k
        if sorted(scenario.network(2, rng=rng).phase_orders) == [1, 1, 2]:
            return rng
    raise RuntimeError(f"no one-MAP random-3q draw for seed {seed}")


def lp_sweep(seed: int, smoke: bool = False) -> Workload:
    rng = one_map_random_rng(seed)
    if smoke:
        points = [("fig5-case-study", n, {}) for n in (2, 3)]
        points += [("random-3q", 2, {"rng": rng})]
    else:
        points = [("fig5-case-study", n, {}) for n in range(2, 13)]
        points += [("bursty-tandem", n, {}) for n in range(10, 51)]
        points += [("random-3q", n, {"rng": rng}) for n in (2, 5, 10)]
        points += [("tpcw", 20, {})]
    items = [Item(name, n, "lp", overrides=ov) for name, n, ov in points]
    return Workload("lp-sweep", items, check_lp_against_exact,
                    info={"random_3q_rng": rng})


def _station_fields(payload: dict):
    for key in ("utilization", "throughput", "queue_length"):
        for k, iv in enumerate(payload[key]):
            yield f"{key}[{k}]", iv
    yield "system_throughput", payload["system_throughput"]


def check_lp_against_exact(items, results) -> dict:
    """LP-lower <= exact <= LP-upper wherever the exact CTMC is cheap."""
    exact_registry = SolverRegistry(cache=None)
    wrong = {}
    for i, (item, res) in enumerate(zip(items, results)):
        if res is None or expected_state_count(item.network) > LP_CHECK_MAX_STATES:
            continue
        lp = res.to_dict()
        ex = exact_registry.solve(item.network, "exact").to_dict()
        for (name, bound), (_, point) in zip(_station_fields(lp), _station_fields(ex)):
            if bound is None:
                continue
            x = point[0]
            tol = 1e-6 * max(1.0, abs(x))
            if not bound[0] - tol <= x <= bound[1] + tol:
                wrong[i] = f"{name}: exact {x!r} outside LP [{bound[0]!r}, {bound[1]!r}]"
                break
    return wrong


# ---------------------------------------------------------------------- #
# ctmc-exact
# ---------------------------------------------------------------------- #
CTMC_SCENARIOS = (
    "tpcw", "tpcw-no-acf", "skewed-central", "fig5-case-study", "hyperexp-central",
)
RING = {"n_stations": 6}


def ctmc_exact(seed: int, smoke: bool = False) -> Workload:
    """Inputs do not depend on the seed: this workload has no random input."""
    items = []
    names = ("hyperexp-central",) if smoke else CTMC_SCENARIOS
    for name in names:
        sc = get_scenario(name)
        pop = 5 if smoke else sc.default_population
        items.append(Item(name, pop, "exact"))
        items.append(Item(name, pop, "transient"))
    if smoke:
        ring = [(2, "exact", "auto"), (3, "exact", "operator"),
                (3, "transient", "operator")]
    else:
        # N=4 under auto takes the dense path (sparse LU): a known slow
        # point kept visible on purpose.  N=10 runs matrix-free.
        ring = [(4, "exact", "auto"), (10, "exact", "operator"),
                (10, "transient", "operator")]
    for pop, method, backend in ring:
        opts = {} if backend == "auto" else {"backend": backend}
        items.append(Item("kron-ring", pop, method, opts, overrides=dict(RING)))
    return Workload("ctmc-exact", items, check_ctmc)


def finish_ctmc_items(items) -> None:
    """Fill in transient grids once the networks are compiled."""
    for item in items:
        if item.method == "transient":
            grid = default_time_grid(item.network)[:CTMC_GRID_POINTS]
            item.opts["times"] = tuple(grid)


def reference_view(payload: dict) -> dict:
    """The numeric answer fields compared against stored references."""
    keys = ("utilization", "throughput", "queue_length", "system_throughput",
            "response_time", "times", "utilization_t", "queue_length_t",
            "throughput_t")
    view = {k: payload[k] for k in keys if k in payload}
    extra = payload.get("extra", {})
    for k in ("utilization_inf", "queue_length_inf", "throughput_inf"):
        if k in extra:
            view[k] = extra[k]
    return view


def _flat(value) -> list:
    if value is None:
        return [math.nan]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _flat(v)]
    return [float(value)]


def compare_to_reference(payload: dict, ref: dict) -> "str | None":
    got = reference_view(payload)
    if sorted(got) != sorted(ref):
        return f"fields {sorted(got)} != reference {sorted(ref)}"
    for key in ref:
        a, b = np.array(_flat(got[key])), np.array(_flat(ref[key]))
        if a.shape != b.shape or not np.allclose(
            a, b, rtol=REF_RTOL, atol=REF_ATOL, equal_nan=True
        ):
            return f"{key} differs from the stored reference"
    return None


def check_ctmc(items, results, reference: "dict | None" = None) -> dict:
    """Stored references, and transient t -> inf against exact."""
    if reference is None:
        reference = json.loads(CTMC_REFERENCE.read_text())
    wrong = {}
    exact_util = {}
    for item, res in zip(items, results):
        if res is not None and item.method == "exact":
            exact_util[(item.scenario, item.population)] = res.to_dict()["utilization"]
    for i, (item, res) in enumerate(zip(items, results)):
        if res is None:
            continue
        payload = res.to_dict()
        ref = reference.get(item.label)
        if ref is None:
            wrong[i] = "no stored reference"
            continue
        problem = compare_to_reference(payload, ref)
        if problem is None and item.method == "transient":
            ex = exact_util.get((item.scenario, item.population))
            inf = payload["extra"]["utilization_inf"]
            if ex is None or not np.allclose(
                inf, [iv[0] for iv in ex], rtol=0.0, atol=1e-8
            ):
                problem = "transient t->inf utilization != exact utilization"
        if problem is not None:
            wrong[i] = problem
    return wrong


# ---------------------------------------------------------------------- #
# catalog-cache
# ---------------------------------------------------------------------- #
def catalog_cache(seed: int, smoke: bool = False) -> Workload:
    pairs = json.loads(CATALOG_PAIRS.read_text())["pairs"]
    if smoke:
        keep = {"hyperexp-central", "open-web-tier", "poisson-tandem"}
        pairs = [p for p in pairs if p[0] in keep][:40]
    items = []
    for index, (name, pop, method) in enumerate(pairs):
        opts = {}
        if method == "sim":
            opts = {
                "rng": derive_seed(seed, index),
                "horizon_events": SIM_HORIZON_EVENTS,
                "warmup_events": SIM_WARMUP_EVENTS,
            }
        items.append(Item(name, pop, method, opts))
    return Workload("catalog-cache", items, check_catalog)


def check_catalog(items, results) -> dict:
    """Cold answers are well formed: finite, ordered intervals."""
    wrong = {}
    for i, res in enumerate(results):
        if res is None:
            continue
        payload = res.to_dict()
        for key in ("utilization", "throughput", "queue_length"):
            for iv in payload[key]:
                if iv is not None and not (
                    math.isfinite(iv[0]) and math.isfinite(iv[1])
                    and iv[0] <= iv[1] + 1e-9 * max(1.0, abs(iv[1]))
                ):
                    wrong[i] = f"{key} interval {iv!r} malformed"
    return wrong


def catalog_candidates():
    """Every catalog scenario x non-LP method x suggested population.

    ``exact``/``transient`` are kept only within ``CATALOG_MAX_STATES``.
    LP is left to ``lp-sweep``: at the catalog's populations one pass
    of LP bounds takes minutes.
    """
    methods = ("exact", "sim", "qbd", "mva", "aba", "bjb", "decomposition",
               "transient", "fluid")
    for sc in get_scenario_registry():
        for pop in sc.populations or (sc.default_population,):
            net = sc.network(pop)
            for method in methods:
                if method in ("exact", "transient"):
                    if net.kind != "closed" or expected_state_count(net) > CATALOG_MAX_STATES:
                        continue
                yield sc.name, int(pop), method


WORKLOADS = {
    "lp-sweep": lp_sweep,
    "ctmc-exact": ctmc_exact,
    "catalog-cache": catalog_cache,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Describe and compile one workload (the set-up the benchmark times)."""
    wl = WORKLOADS[name](seed, smoke)
    compiled = {}
    for item in wl.items:
        # one compiled network per scenario point, shared by its methods
        key = (item.scenario, item.population, tuple(sorted(item.overrides.items())))
        if key not in compiled:
            item.compile()
            compiled[key] = item.network
        item.network = compiled[key]
    if name == "ctmc-exact":
        finish_ctmc_items(wl.items)
    return wl

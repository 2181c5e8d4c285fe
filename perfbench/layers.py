"""Per-layer metrics: their definitions, what each should move, and the layer table.

``METRICS`` lists every per-layer metric the traced run reports, in the
order of ``BENCHMARK.json``, each with the end-to-end metric and workload
it is expected to move (``moves``).  Two families:

* trace metrics, from the spans of the traced phase of a workload.  Work
  counts and calls are per op (``count/op``), so they repeat exactly for a
  given input cycle; times are shares of the traced op time (``%``), so a
  layer a workload never calls reads 0 rather than a time.
* the layer table (``table.*``): fixed calls timed with tracing off, the
  median of a few batches, the same on every workload.  It reproduces the
  one-off table of ROADMAP.md in a committed harness.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import litt43

LAYERS = ("exponents", "forms", "opnorm", "khinchin", "search", "verify", "jsonio", "cli")
CHECKS = ("witness_sharpness", "real_upper_bound", "lemma_ceilings", "search_sharpness",
          "khinchin_sharpness", "steinhaus_closed_form", "torus_sandwich",
          "blei_khinchine", "steinhaus_sharp_point", "roundtrips")
CLIMBERS = ("search.maximize_ratio", "search.maximize_khinchin_ratio")


class TraceView:
    """Per-op and per-time readings of one traced phase, plus the layer table."""

    def __init__(self, stats, refusals, ops, op_seconds, overhead_pct, table):
        self.stats = stats
        self.refusals = refusals
        self.ops = ops
        self.op_seconds = op_seconds
        self.overhead_pct = overhead_pct
        self.table = table

    def get(self, fn, stat):
        return self.stats.get(fn, {}).get(stat, 0)

    def per_op(self, fn, stat):
        return self.get(fn, stat) / self.ops

    def pct(self, seconds):
        return 100.0 * seconds / self.op_seconds

    def layer_self_pct(self, layer):
        return self.pct(sum(s["self_s"] for fn, s in self.stats.items()
                            if fn.startswith(layer + ".")))

    def rate(self, fns, stat):
        seconds = sum(self.get(fn, "total_s") for fn in fns)
        return sum(self.get(fn, stat) for fn in fns) / seconds if seconds else 0.0


def _m(name, unit, better, metric, workload, read):
    return {"name": name, "unit": unit, "better": better,
            "moves": {"metric": metric, "workload": workload}, "read": read}


def _function_metrics(fn, stats, moves):
    kinds = {"calls": ("count/op", "lower", lambda v: v.per_op(fn, "calls")),
             "self_pct": ("%", "lower", lambda v: v.pct(v.get(fn, "self_s"))),
             "patterns": ("count/op", "lower", lambda v: v.per_op(fn, "patterns")),
             "evals": ("count/op", "lower", lambda v: v.per_op(fn, "evals")),
             "terms": ("count/op", "lower", lambda v: v.per_op(fn, "terms")),
             "patterns_per_s": ("1/s", "higher", lambda v: v.rate([fn], "patterns"))}
    out = []
    for stat in stats:
        unit, better, read = kinds[stat]
        metric, workload = moves[stat] if isinstance(moves, dict) else moves
        out.append(_m(f"{fn}.{stat}", unit, better, metric, workload, read))
    return out


def _trace_metrics():
    metrics = []
    metrics += _function_metrics(
        "opnorm.real_sup_norm", ("calls", "self_pct", "patterns", "patterns_per_s"),
        {"calls": ("ops_per_s", "climb"), "self_pct": ("ops_per_s", "certify"),
         "patterns": ("op_tail_ms", "certify"), "patterns_per_s": ("ops_per_s", "certify")})
    metrics += _function_metrics("opnorm.complex_norm_bounds", ("calls", "self_pct", "evals"),
                                 ("op_tail_ms", "certify"))
    metrics += _function_metrics(
        "khinchin.rademacher_average", ("calls", "self_pct", "terms"),
        {"calls": ("ops_per_s", "climb"), "self_pct": ("ops_per_s", "averages"),
         "terms": ("ops_per_s", "averages")})
    metrics += _function_metrics("khinchin.e_m_average", ("calls", "self_pct", "terms"),
                                 ("ops_per_s", "averages"))
    metrics += _function_metrics("khinchin.steinhaus_expectation",
                                 ("calls", "self_pct", "terms"), ("op_tail_ms", "averages"))
    for fn in ("forms.BilinearForm", "forms.mixed_norm"):
        metrics += _function_metrics(fn, ("calls", "self_pct"), ("ops_per_s", "climb"))
    metrics += _function_metrics("jsonio.canonical_dumps", ("self_pct",),
                                 ("op_p50_ms", "verify-fast"))
    metrics += _function_metrics("cli.main", ("self_pct",), ("op_p50_ms", "verify-fast"))
    layer_moves = {"exponents": ("ops_per_s", "climb"), "forms": ("ops_per_s", "climb"),
                   "opnorm": ("ops_per_s", "certify"), "khinchin": ("ops_per_s", "averages"),
                   "search": ("ops_per_s", "climb"), "verify": ("op_p50_ms", "verify-fast"),
                   "jsonio": ("op_p50_ms", "verify-fast"), "cli": ("op_p50_ms", "verify-fast")}
    for layer in LAYERS:
        metrics.append(_m(f"{layer}.self_pct", "%", "lower", *layer_moves[layer],
                          lambda v, layer=layer: v.layer_self_pct(layer)))
    metrics += [
        _m("search.steps", "count/op", "higher", "ops_per_s", "climb",
           lambda v: sum(v.per_op(fn, "steps") for fn in CLIMBERS)),
        _m("search.accepted", "count/op", "higher", "ops_per_s", "climb",
           lambda v: sum(v.per_op(fn, "accepted") for fn in CLIMBERS)),
        _m("search.accept_ratio", "ratio", "higher", "ops_per_s", "climb",
           lambda v: (sum(v.get(fn, "accepted") for fn in CLIMBERS)
                      / max(1, sum(v.get(fn, "steps") for fn in CLIMBERS)))),
        _m("search.steps_per_s", "1/s", "higher", "ops_per_s", "climb",
           lambda v: v.rate(CLIMBERS, "steps")),
    ]
    for check in CHECKS:
        metrics.append(_m(f"verify.{check}.pct", "%", "lower", "op_p50_ms", "verify-fast",
                          lambda v, fn=f"verify.check_{check}": v.pct(v.get(fn, "total_s"))))
    metrics += [
        _m("opnorm.capacity_refusals", "count", "lower", "ops_per_s", "certify",
           lambda v: v.refusals.get("opnorm", 0)),
        _m("khinchin.capacity_refusals", "count", "lower", "ops_per_s", "averages",
           lambda v: v.refusals.get("khinchin", 0)),
        _m("trace.overhead_pct", "%", "lower", "ops_per_s", "climb",
           lambda v: v.overhead_pct),
    ]
    return metrics


# -- the layer table ----------------------------------------------------------

TABLE_REPEATS = 3
CLIMB_TABLE_STEPS = 2000

# metric, unit, what it should move, calls per batch, work units per call
TABLE = (
    ("table.opnorm.real_sup_norm.12x12", "ms", ("ops_per_s", "certify"), 20, 1),
    ("table.opnorm.real_sup_norm.16x16", "ms", ("ops_per_s", "certify"), 3, 1),
    ("table.opnorm.real_sup_norm.20x20", "ms", ("ops_per_s", "certify"), 1, 1),
    ("table.forms.mixed_norm.2x2", "us", ("ops_per_s", "climb"), 2000, 1),
    ("table.forms.BilinearForm.2x2", "us", ("ops_per_s", "climb"), 2000, 1),
    ("table.opnorm.complex_norm_bounds.2x2_m16", "us", ("ops_per_s", "climb"), 200, 1),
    ("table.opnorm.complex_norm_bounds.2x2_m16_refine", "ms", ("op_tail_ms", "certify"), 10, 1),
    ("table.khinchin.steinhaus_expectation.n6_q16", "ms", ("op_tail_ms", "averages"), 2, 1),
    ("table.khinchin.steinhaus_expectation.n4_q256", "ms", ("op_tail_ms", "averages"), 1, 1),
    ("table.khinchin.rademacher_average.n16", "us", ("op_p50_ms", "averages"), 50, 1),
    ("table.search.climb_2x2.per_step", "us", ("ops_per_s", "climb"), 1, CLIMB_TABLE_STEPS),
)


def _table_calls(seed) -> dict:
    """metric -> the call it times, on inputs drawn from ``seed``."""
    seeds = iter(int(s) for s in np.random.SeedSequence([seed, 9]).generate_state(8))
    real = {n: litt43.random_form("real", n, n, seed=next(seeds)) for n in (2, 12, 16, 20)}
    cplx = litt43.random_form("complex", 2, 2, seed=next(seeds))
    rng = np.random.default_rng(next(seeds))
    st6 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    st4 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rad16 = rng.standard_normal(16)
    entries = real[2].entries.copy()
    pair = litt43.ExponentPair.of("4/3", "4/3")
    climb_cfg = litt43.SearchConfig(restarts=1, steps=CLIMB_TABLE_STEPS, seed=next(seeds))
    calls = (
        lambda: litt43.real_sup_norm(real[12]),
        lambda: litt43.real_sup_norm(real[16]),
        lambda: litt43.real_sup_norm(real[20]),
        lambda: litt43.mixed_norm(real[2], pair),
        lambda: litt43.BilinearForm("real", entries),
        lambda: litt43.complex_norm_bounds(cplx, 16),
        lambda: litt43.complex_norm_bounds(cplx, 16, refine=True),
        lambda: litt43.steinhaus_expectation(st6, q=16),
        lambda: litt43.steinhaus_expectation(st4, q=256),
        lambda: litt43.rademacher_average(rad16),
        lambda: litt43.maximize_ratio("real", pair, climb_cfg),
    )
    return {spec[0]: call for spec, call in zip(TABLE, calls)}


_SCALE = {"ms": 1e3, "us": 1e6}


def layer_table(seed) -> dict:
    """Time each table call with tracing off: median over batches, per work unit."""
    calls = _table_calls(seed)
    values = {}
    for name, unit, _, batch, work in TABLE:
        call = calls[name]
        call()  # warm
        times = []
        for _ in range(TABLE_REPEATS):
            start = time.perf_counter()
            for _ in range(batch):
                call()
            times.append((time.perf_counter() - start) / (batch * work))
        values[name] = statistics.median(times) * _SCALE[unit]
    return values


def _table_metrics():
    return [_m(name, unit, "lower", *moves, lambda v, name=name: v.table[name])
            for name, unit, moves, _, _ in TABLE]


METRICS = _trace_metrics() + _table_metrics()


def read_all(view) -> dict:
    """name -> {"value", "unit"} for every per-layer metric."""
    return {m["name"]: {"value": float(m["read"](view)), "unit": m["unit"]} for m in METRICS}


def declared() -> list:
    """The per_layer entries of BENCHMARK.json."""
    return [{k: m[k] for k in ("name", "unit", "better")} for m in METRICS]


def moves() -> dict:
    """name -> the end-to-end metric and workload the metric should move."""
    return {m["name"]: m["moves"] for m in METRICS}

"""Stochastic lower-bound search for the sharp-constant ratios.

Two families of objectives are climbed:

* mixed-norm over operator-norm ratios of K x N bilinear forms, probing
  the sharp constants 2^max(0, 1/a+1/b-1) (real) and their complex
  ceilings;
* l_r-norm over average ratios of coefficient vectors, probing the
  Khinchin-type ceilings (Rademacher, T_M, Steinhaus).

The climber is plain hill climbing: entry-wise Gaussian perturbations,
strict-improvement acceptance, a geometric scale decay of 0.95 per
rejected step with a bounded re-expansion on acceptance, and independent
restarts seeded ``seed + restart_index``.  Everything is deterministic
for a fixed config (unless a wall-clock budget cuts restarts short).

Proposals are evaluated in step windows, up to 64 in one batched kernel
call, and the trajectory is still the per-step one bit for bit.  The noise
of step s comes only from the restart's own generator, never from x or
the scale, and under rejection the scale follows a fixed ladder.  So the
next w proposals, assuming each earlier one in the window is rejected,
are x + s_k * G_k, with G_k the next w draws of the stream (one
(w, ...) draw is those w draws) and s_k the scale decayed k times by
repeated multiplication.  The first strict improvement in the window is
exactly serial step k; the climber takes it, keeps the unused draws for
the next window and discards the later proposals, which the serial path
never made.  The kernels give each member of a batch the bits it gets
alone.  A window is as large as keeps its tables within 8192 elements,
so an objective that fills that with one evaluation steps one proposal
at a time, as the serial path did, with nothing evaluated in vain.

Restarts climb in lock-step groups.  Each keeps its own generator, noise,
scale ladder and step count; a round stacks the windows of every restart
of the group that has steps left into one ``normalize`` and one ``ratios``
call, and applies the first-improvement rule to each restart's slice, so
the per-call overhead is paid once per round rather than once per window.
A group holds ``ceil(restarts / workers)`` consecutive restarts, so a
process pool maps over one group per worker; a search with a wall-clock
budget runs groups of one restart.  The stack of a round is as large as
its group, and the pattern walk (``opnorm._walk``) splits the kernel call
into parts that fit its one bound on table elements, the bound of every
other batched call too.

Complex form searches cannot evaluate the true operator norm, only the
certified interval from ``opnorm.complex_norm_bounds``.  The reported
``best_ratio`` divides by the interval's *upper* endpoint (pessimistic:
a valid lower bound on the constant, safe against the ceiling), while
``optimistic_ratio`` divides by the refined lower endpoint and may
exceed the ceiling by up to the interval width.

A completed run whose best_ratio exceeds its ceiling by more than
``CEILING_SLACK`` (1e-9) would falsify the implementation (or the
ceiling); the result is flagged and serialized to
``litt43-falsification-<kind>-seed<seed>.json`` in the working directory
rather than raised.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import SerializationError
from .exponents import (CEILING_SLACK, Exponent, ExponentPair, _as_exponent, _as_integer,
                        complex_constant_bounds, real_constant)
from .forms import BilinearForm, _mixed_norms, form_from_json, form_to_json, mixed_norm
from .jsonio import canonical_dumps, loads, require_field
from .khinchin import (_AGM_NODE_COST, CoefficientVector, _lr_norms, _mean_abs, _quadrature,
                       _rademacher_means, ceiling)
from .opnorm import (DEFAULT_EVAL_BUDGET, _grid_norms, _real_norms, complex_norm_bounds,
                     r_m, real_sup_norm)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "maximize_ratio",
    "maximize_khinchin_ratio",
    "evaluate_witness",
    "checkpoint_save",
    "checkpoint_load",
]

_SCALE_DECAY = 0.95
_SCALE_REGROWTH_STEPS = 20  # bounded re-expansion on improvement

# A step window evaluates up to _MAX_WINDOW proposals in one kernel call,
# as many as keep its tables within _WINDOW_ELEMENTS elements in all.
_WINDOW_ELEMENTS = 8192
_MAX_WINDOW = 64


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 50
    steps: int = 2000
    scale: float = 0.5
    seed: int = 0
    dims: tuple = (2, 2)
    budget_seconds: Optional[float] = None

    def __post_init__(self):
        for name, low in (("restarts", 1), ("steps", 0), ("seed", 0)):
            object.__setattr__(self, name, _as_integer(getattr(self, name), name, low))
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"perturbation scale must be positive and finite, got {self.scale!r}")
        # NaN would never expire (every deadline comparison is false)
        if self.budget_seconds is not None and not self.budget_seconds >= 0.0:
            raise ValueError(f"budget_seconds must be >= 0 or None, got {self.budget_seconds!r}")
        k, n = self.dims
        object.__setattr__(self, "dims", (_as_integer(k, "dims[0]", 1),
                                          _as_integer(n, "dims[1]", 1)))


@dataclass(frozen=True)
class SearchResult:
    kind: str                    # "form_ratio" | "khinchin_ratio"
    params: dict                 # objective parameters (field/exponents/model/...)
    config: SearchConfig
    best_ratio: float
    witness: Union[BilinearForm, CoefficientVector]
    ceiling: float
    ceiling_provenance: str
    restarts_run: int
    improved_at: tuple           # ((restart, step), ...)
    optimistic_ratio: Optional[float] = None

    @property
    def falsification(self) -> bool:
        return self.best_ratio > self.ceiling + CEILING_SLACK


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def _exp_to_json(e: Exponent):
    return "inf" if e.is_inf else e.value


def _gaussians(rng: np.random.Generator, count: int, shape: tuple, field: str) -> np.ndarray:
    """``count`` standard normal draws of ``shape``, stacked; re then im if complex.

    One (count, ...) draw is the same stream as ``count`` draws in a row,
    so a batch of draws is the per-step noise of ``count`` steps.
    """
    if field == "complex":
        g = rng.standard_normal((count, 2) + shape)
        return g[:, 0] + 1j * g[:, 1]
    return rng.standard_normal((count,) + shape)


class _Objective:
    """A scale-invariant ratio of points of one shape.

    ``ratios`` evaluates a stack of points (leading axis) in one kernel
    call and returns their ratios as an array, NaN where one is undefined.
    """

    def ratio(self, x) -> Optional[float]:
        value = float(self.ratios(x[None])[0])  # a float: checkpoints serialize it
        return None if math.isnan(value) else value


def _quotients(numerators, denominators, defined) -> np.ndarray:
    """numerators / denominators where ``defined`` and the numerator is finite, NaN elsewhere.

    A numerator that overflowed to inf would read as an unbounded ratio.
    """
    return np.divide(numerators, denominators, out=np.full(len(numerators), math.nan),
                     where=defined & np.isfinite(numerators))


def _int_param(params: dict, name: str, low: int, even: bool = False) -> int:
    """params[name] through ``_as_integer``, named as the checkpoint field."""
    return _as_integer(params.get(name), f"field 'params.{name}'", low, even)


class _FormObjective(_Objective):
    """mixed_norm / operator-norm ratio over K x N forms of one field."""

    def __init__(self, params: dict):
        self.field = params["field"]
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        self.pair = ExponentPair.of(params["a"], params["b"])
        self.m = _int_param(params, "m", 3) if self.field == "complex" else 0

    def shape(self, dims) -> tuple:
        return tuple(dims)

    def cost(self, shape) -> int:
        """Table elements one evaluation builds: both fields walk the smaller side."""
        k, n = shape
        return max(k, n) * (2 if self.field == "real" else self.m) ** (min(k, n) - 1)

    def normalize(self, X):
        return X

    def ratios(self, X) -> np.ndarray:
        numerators = _mixed_norms(X, (self.pair.a.value,), (self.pair.b.value,))[:, 0, 0]
        if self.field == "real":
            denominators = _real_norms(X)
        else:
            # pessimistic ratio: divide by the certified upper bound
            denominators = _grid_norms(X, self.m) / r_m(self.m)
        return _quotients(numerators, denominators, denominators >= 1e-12)

    def final_ratios(self, x):
        """(best_ratio, optimistic_ratio) at the climbed point."""
        form = BilinearForm(self.field, x)
        numerator = mixed_norm(form, self.pair).value
        if self.field == "real":
            return numerator / real_sup_norm(form), None
        bounds = complex_norm_bounds(form, self.m, refine=True)
        return numerator / bounds.upper, numerator / bounds.lower

    def witness(self, x):
        return BilinearForm(self.field, x)

    def ceiling(self):
        if self.field == "real":
            report = real_constant(self.pair)
            return report.exact, f"sharp real ceiling: {report.provenance}"
        report = complex_constant_bounds(self.pair)
        text = (f"complex ceiling: {report.provenance}; best_ratio divides by the "
                f"certified norm upper bound (valid lower bound on the constant), "
                f"optimistic_ratio by the refined lower bound (may exceed the "
                f"ceiling by up to a factor 1/R_M = {1.0 / r_m(self.m)!r})")
        return report.upper, text


class _KhinchinObjective(_Objective):
    """l_r norm / average ratio over coefficient vectors."""

    def __init__(self, params: dict):
        self.model = params["model"]
        if self.model not in ("rademacher", "e_m", "steinhaus"):
            raise ValueError(f"unknown model {self.model!r}")
        self.r = _as_exponent(params["r"])
        self.n = _int_param(params, "n", 1)
        self.m = _int_param(params, "m", 2) if self.model == "e_m" else 0
        self.q = _int_param(params, "q", 4, even=True) if self.model == "steinhaus" else 0
        self.field = "real" if self.model == "rademacher" else "complex"

    def shape(self, dims) -> tuple:
        return (self.n,)

    def cost(self, shape) -> int:
        """Table elements one evaluation builds, or their equal in work.

        A Steinhaus evaluation walks q^(N-2) nodes, and each node's AGM is
        priced at _AGM_NODE_COST table elements.
        """
        n = shape[-1]
        if self.model == "steinhaus":
            return _AGM_NODE_COST * self.q ** max(n - 2, 0)
        return {"rademacher": 2, "e_m": self.m}[self.model] ** (n - 1)

    def normalize(self, X):
        norms = _lr_norms(X, self.r)
        norms[norms == 0.0] = 1.0  # the zero vector stays as it is
        return X / norms[:, None]

    def _averages(self, X):
        if self.model == "rademacher":
            return _rademacher_means(X)
        if self.model == "e_m":
            return _mean_abs(X, self.m, DEFAULT_EVAL_BUDGET)
        return _quadrature(X, self.q)[0]

    def ratios(self, X) -> np.ndarray:
        numerators, averages = _lr_norms(X, self.r), self._averages(X)
        return _quotients(numerators, averages,
                          (numerators != 0.0) & (averages >= 1e-12 * numerators))

    def final_ratios(self, x):
        return self.ratio(x), None

    def witness(self, x):
        return CoefficientVector(self.field, x)

    def ceiling(self):
        return ceiling(self.model, self.r, self.m)


def _make_objective(kind: str, params: dict):
    if kind == "form_ratio":
        return _FormObjective(params)
    if kind == "khinchin_ratio":
        return _KhinchinObjective(params)
    raise ValueError(f"unknown search kind {kind!r}")


# ---------------------------------------------------------------------------
# the climber
# ---------------------------------------------------------------------------

def _start(objective, rng, shape):
    """The restart's first point and its ratio, redrawn while the ratio is undefined."""
    for _ in range(101):
        x = objective.normalize(_gaussians(rng, 1, shape, objective.field))[0]
        current = objective.ratio(x)
        if current is not None:
            return x, current
    raise RuntimeError("could not draw a starting point with a nonzero denominator")


def _run_restarts(kind, params, cfg, restarts):
    """Climb the given restarts in lock-step; the (x, events) of each, in order."""
    objective = _make_objective(kind, params)
    shape = objective.shape(cfg.dims)
    window = min(_MAX_WINDOW, max(1, _WINDOW_ELEMENTS // objective.cost(shape)))
    ladder_shape = (-1,) + (1,) * len(shape)
    rngs = [np.random.default_rng(cfg.seed + restart) for restart in restarts]
    xs, currents = map(list, zip(*(_start(objective, rng, shape) for rng in rngs)))
    scales = [cfg.scale] * len(rngs)
    events = [[(0, current)] for current in currents]
    noise = [_gaussians(rng, 0, shape, objective.field) for rng in rngs]  # drawn, not yet used
    done = [0] * len(rngs)
    active = list(range(len(rngs))) if cfg.steps else []
    while active:
        # each active restart's next w steps as if every one is rejected: their
        # noise is fixed by its stream, their scales by the decay ladder's
        # repeated multiplication; all the windows go to the kernels as one stack
        ladders, stack = [], []
        for i in active:
            w = min(window, cfg.steps - done[i])
            if len(noise[i]) < w:
                noise[i] = np.concatenate([noise[i], _gaussians(rngs[i], w - len(noise[i]),
                                                                shape, objective.field)])
            ladders.append(np.multiply.accumulate([scales[i]] + [_SCALE_DECAY] * (w - 1)))
            stack.append(xs[i] + ladders[-1].reshape(ladder_shape) * noise[i][:w])
        candidates = objective.normalize(np.concatenate(stack))
        ratios = objective.ratios(candidates)
        offset = 0
        for i, ladder in zip(active, ladders):
            # the first improvement in the window is the serial step; later ones
            # are moot (NaN, an undefined ratio, is never an improvement)
            improved = ratios[offset:offset + len(ladder)] > currents[i]
            k = int(np.argmax(improved))
            if improved[k]:
                xs[i], currents[i] = candidates[offset + k], float(ratios[offset + k])
                scales[i] = min(cfg.scale, ladder[k] / _SCALE_DECAY ** _SCALE_REGROWTH_STEPS)
                events[i].append((done[i] + k + 1, currents[i]))
            else:
                k = len(ladder) - 1
                scales[i] = ladder[-1] * _SCALE_DECAY
            noise[i] = noise[i][k + 1:]
            done[i] += k + 1
            offset += len(ladder)
        active = [i for i in active if done[i] < cfg.steps]
    # scale invariance spot check: the objective must not depend on |x|
    for current, doubled in zip(currents, objective.ratios(2.0 * np.stack(xs)).tolist()):
        if abs(doubled - current) > 1e-12 * max(current, 1.0):
            raise RuntimeError(
                f"objective is not scale invariant: ratio(x)={current!r} ratio(2x)={doubled!r}"
            )
    return list(zip(xs, events))


def _groups(cfg: SearchConfig, workers: int) -> list:
    """The restarts of a search split into consecutive lock-step groups.

    A pool gets one group per worker.  A budgeted search runs groups of
    one, so the budget is checked after every restart.
    """
    size = 1 if cfg.budget_seconds is not None else -(-cfg.restarts // workers)
    return [range(i, min(i + size, cfg.restarts)) for i in range(0, cfg.restarts, size)]


def _search(kind: str, params: dict, cfg: SearchConfig, workers: int = 1) -> SearchResult:
    workers = _as_integer(workers, "workers", 1)
    objective = _make_objective(kind, params)
    ceiling, provenance = objective.ceiling()
    groups = _groups(cfg, workers)
    deadline = (time.monotonic() + cfg.budget_seconds
                if cfg.budget_seconds is not None else None)
    # outcomes arrive in restart order, serially or from the pool; once a
    # group finds the wall-clock budget spent, the later groups are dropped
    # (the pool cancels those it has not started)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    outcomes = []
    try:
        for outcome in (pool.map if pool else map)(
                _run_restarts, repeat(kind), repeat(params), repeat(cfg), groups):
            outcomes.extend(outcome)
            if deadline is not None and time.monotonic() > deadline:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    # deterministic merge in restart order; within a restart values are
    # monotone, so a restart that ever improves the global best ends holding it
    best_x = None
    best_value = -math.inf
    improved_at = []
    for restart, (x, events) in enumerate(outcomes):
        improved_here = False
        for step, value in events:
            if value > best_value:
                best_value = value
                improved_at.append((restart, step))
                improved_here = True
        if improved_here:
            best_x = x
    best_ratio, optimistic = objective.final_ratios(best_x)
    result = SearchResult(
        kind=kind, params=dict(params), config=cfg,
        best_ratio=best_ratio, witness=objective.witness(best_x),
        ceiling=ceiling, ceiling_provenance=provenance,
        restarts_run=len(outcomes), improved_at=tuple(improved_at),
        optimistic_ratio=optimistic,
    )
    if result.falsification:
        checkpoint_save(result, f"litt43-falsification-{kind}-seed{cfg.seed}.json")
    return result


def maximize_ratio(field: str, pair: ExponentPair, cfg: SearchConfig,
                   m: int = 16, workers: int = 1) -> SearchResult:
    """Climb the mixed-norm/operator-norm ratio over forms of cfg.dims.

    ``m`` selects the root-of-unity grid for complex norm certification
    and is ignored for real searches.
    """
    params = {"field": field, "a": _exp_to_json(pair.a), "b": _exp_to_json(pair.b)}
    if field == "complex":
        params["m"] = m
    return _search("form_ratio", params, cfg, workers=workers)


def maximize_khinchin_ratio(model: str, r, n: int, cfg: SearchConfig,
                            m: Optional[int] = None, q: int = 64,
                            workers: int = 1) -> SearchResult:
    """Climb the l_r/average ratio over N-coefficient vectors.

    model: "rademacher" (real vectors), "e_m" (complex, needs ``m``), or
    "steinhaus" (complex, quadrature with ``q`` nodes per angle).
    Vectors are renormalized to unit l_r between steps.  The vector length
    is ``n``; ``cfg.dims`` is not read (so ``search --kind khinchin`` refuses
    ``--K``, and ``--N`` gives the length).
    """
    r = _as_exponent(r)
    params = {"model": model, "r": _exp_to_json(r), "n": n}
    if model == "e_m":
        params["m"] = m
    elif model == "steinhaus":
        params["q"] = q
    return _search("khinchin_ratio", params, cfg, workers=workers)


def evaluate_witness(result: SearchResult) -> float:
    """Recompute best_ratio from the serialized witness through the public API."""
    objective = _make_objective(result.kind, result.params)
    if isinstance(result.witness, BilinearForm):
        x = result.witness.entries
    else:
        x = result.witness.values
    value, _ = objective.final_ratios(x)
    return value


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def _witness_to_json(witness):
    if isinstance(witness, BilinearForm):
        return "form", form_to_json(witness)
    doc = form_to_json(BilinearForm(witness.field, witness.values[None, :]))
    return "coefficients", doc


def _witness_from_json(kind: str, doc: dict):
    form = form_from_json(doc)
    if kind == "form":
        return form
    if kind == "coefficients":
        if form.rows != 1:
            raise SerializationError("field 'witness' of a coefficient vector must have rows = 1")
        return CoefficientVector(form.field, form.entries[0])
    raise SerializationError(f"field 'witness_kind' must be 'form' or 'coefficients', got {kind!r}")


def checkpoint_save(result: SearchResult, path) -> None:
    """Serialize a SearchResult as canonical JSON, atomically (write + rename)."""
    witness_kind, witness_doc = _witness_to_json(result.witness)
    doc = {
        "version": _CHECKPOINT_VERSION,
        "kind": result.kind,
        "params": result.params,
        "config": asdict(result.config),
        "best_ratio": result.best_ratio,
        "optimistic_ratio": result.optimistic_ratio,
        "ceiling": result.ceiling,
        "ceiling_provenance": result.ceiling_provenance,
        "restarts_run": result.restarts_run,
        "improved_at": [list(ev) for ev in result.improved_at],
        "witness_kind": witness_kind,
        "witness": witness_doc,
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(canonical_dumps(doc) + "\n", encoding="ascii")
    os.replace(tmp, path)


def checkpoint_load(path) -> SearchResult:
    """Read a checkpoint_save file; a malformed or out-of-range field raises
    SerializationError naming it."""
    doc = loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(doc, dict):
        raise SerializationError("checkpoint must be a JSON object")
    version = require_field(doc, "version", int)
    if version != _CHECKPOINT_VERSION:
        raise SerializationError(f"field 'version' must be {_CHECKPOINT_VERSION}, got {version}")
    kind = require_field(doc, "kind", str)
    params = require_field(doc, "params", dict)
    try:
        _make_objective(kind, params).ceiling()
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"fields 'kind' and 'params' define no objective: {exc!r}") from exc
    cfg_doc = require_field(doc, "config", dict)
    dims = require_field(cfg_doc, "dims", list)
    if len(dims) != 2 or any(type(d) is not int for d in dims):
        raise SerializationError(f"field 'config.dims' must be two integers, got {dims!r}")
    budget = cfg_doc.get("budget_seconds")
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, (int, float))):
        raise SerializationError("field 'config.budget_seconds' must be a number or null")
    fields = {name: require_field(cfg_doc, name, expected)
              for name, expected in (("restarts", int), ("steps", int), ("scale", float),
                                     ("seed", int))}
    try:
        cfg = SearchConfig(dims=tuple(dims), **fields,
                           budget_seconds=None if budget is None else float(budget))
    except ValueError as exc:
        raise SerializationError(f"field 'config' is out of range: {exc}") from exc
    restarts_run = require_field(doc, "restarts_run", int)
    if not 1 <= restarts_run <= cfg.restarts:
        raise SerializationError(
            f"field 'restarts_run' must lie in [1, {cfg.restarts}], got {restarts_run}")
    events = []
    for i, ev in enumerate(require_field(doc, "improved_at", list)):
        if not (isinstance(ev, list) and len(ev) == 2 and all(type(v) is int for v in ev)
                and 0 <= ev[0] < restarts_run and 0 <= ev[1] <= cfg.steps):
            raise SerializationError(
                f"field 'improved_at'[{i}] must be a [restart, step] pair of the run, got {ev!r}")
        events.append(tuple(ev))
    witness = _witness_from_json(require_field(doc, "witness_kind", str),
                                 require_field(doc, "witness", dict))
    optimistic = doc.get("optimistic_ratio")
    if optimistic is not None and (isinstance(optimistic, bool)
                                   or not isinstance(optimistic, (int, float))):
        raise SerializationError("field 'optimistic_ratio' must be a number or null")
    return SearchResult(
        kind=kind,
        params=params,
        config=cfg,
        best_ratio=require_field(doc, "best_ratio", float),
        witness=witness,
        ceiling=require_field(doc, "ceiling", float),
        ceiling_provenance=require_field(doc, "ceiling_provenance", str),
        restarts_run=restarts_run,
        improved_at=tuple(events),
        optimistic_ratio=None if optimistic is None else float(optimistic),
    )

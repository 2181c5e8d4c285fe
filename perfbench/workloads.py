"""The benchmark workloads: seeded inputs, one op per input, and its check.

A workload is a *cycle*: a fixed list of op specs whose inputs are drawn
from the workload seed.  The harness runs whole cycles, so every run does
the same mix of work in the same proportions, whatever the seed.  Each
cycle has an odd number of ops, so the median latency always falls inside
the middle op's own samples, never between two ops of different cost.
Ops look package functions up at call time (``litt43.real_sup_norm``), so
the tracer's wrappers see them.

Each op returns its output as plain Python values (floats, ints, strings,
lists), so outputs can be compared for equality and hashed.  ``check``
returns ``None`` for a correct output, or the reason it is wrong.  The
checks use their own copies of the ceiling formulas, not the package's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import litt43
import litt43.cli
import litt43.verify
from litt43 import ExponentPair, SearchConfig

# Tolerances of the checks: a ceiling may be met up to the package's own
# 1e-9 falsification slack; a value recomputed from its parts must agree
# to a few units in the last place.
CEILING_SLACK = 1e-9
ROUNDING = 4 * np.finfo(np.float64).eps

_FOUR_OVER_PI = 4.0 / math.pi
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _inv(text: str) -> float:
    """Reciprocal 1/p of an exponent literal ("inf", "4/3", "2")."""
    if text == "inf":
        return 0.0
    num, _, den = text.partition("/")
    return float(den or 1) / float(num)


def real_ceiling(a: str, b: str) -> float:
    """Sharp real constant 2^max(0, 1/a + 1/b - 1)."""
    return 2.0 ** max(0.0, _inv(a) + _inv(b) - 1.0)


def complex_ceiling(a: str, b: str) -> float:
    """Upper end of the certified complex constant interval."""
    d = _inv(a) + _inv(b) - 1.0
    if d <= 0.0:
        return 1.0
    if {a, b} == {"1", "2"}:
        return _TWO_OVER_SQRT_PI
    return _FOUR_OVER_PI ** d


def r_m(m: int) -> float:
    return math.sqrt(0.5 + 0.5 * math.cos(2.0 * math.pi / m))


# ---------------------------------------------------------------------------
# certify: operator norms and their ceiling ratios
# ---------------------------------------------------------------------------

PAIRS = (("4/3", "4/3"), ("1", "2"), ("2", "2"), ("inf", "1"))
# The 4x24 form, at the package's enumeration cap, is the tail op.  It takes
# 50-110 ms on a 2-core host, so host jitter of a few ms barely moves the tail.
WIDE = ((3, 14), (4, 16), (2, 18), (3, 20), (4, 22), (4, 24))
SQUARE = (8, 12, 16)
# Phase-ascent refinement costs 2-3x more on some inputs than on others, so
# it runs on the small forms only and the tail stays with the enumerations,
# whose cost depends on the shape alone.
COMPLEX = ((3, 4, 8, False), (3, 6, 8, False), (3, 5, 16, False), (2, 7, 8, False),
           (2, 6, 16, False), (2, 3, 8, True), (2, 3, 16, True), (3, 3, 8, True))


def _real_op(label, form, pair):
    pair_obj = ExponentPair.of(*pair)
    ceiling = real_ceiling(*pair)

    def run():
        norm = litt43.real_sup_norm(form)
        return [norm, litt43.mixed_norm(form, pair_obj).value]

    def check(out):
        norm, mixed = out
        if not mixed / norm <= ceiling + CEILING_SLACK:
            return f"mixed/norm = {mixed / norm!r} exceeds the ceiling {ceiling!r}"
        return None

    return Op(label, run, check)


def _complex_op(label, form, m, refine, pair):
    pair_obj = ExponentPair.of(*pair)
    ceiling = complex_ceiling(*pair)
    factor = r_m(m)

    def run():
        b = litt43.complex_norm_bounds(form, m, refine=refine)
        return [b.lower, b.upper, b.discrete_norm, b.r_m,
                litt43.mixed_norm(form, pair_obj).value]

    def check(out):
        lower, upper, discrete, rm, mixed = out
        if not lower <= upper:
            return f"interval [{lower!r}, {upper!r}] is empty"
        if not math.isclose(rm, factor, rel_tol=ROUNDING):
            return f"R_M = {rm!r}, expected {factor!r}"
        if not math.isclose(upper * rm, discrete, rel_tol=ROUNDING):
            return f"upper * R_M = {upper * rm!r} differs from the grid norm {discrete!r}"
        if not mixed / upper <= ceiling + CEILING_SLACK:
            return f"mixed/upper = {mixed / upper!r} exceeds the ceiling {ceiling!r}"
        return None

    return Op(label, run, check)


def certify(seed: int, workdir: Path) -> List[Op]:
    ss = np.random.SeedSequence([seed, 1])
    seeds = iter(int(s) for s in ss.generate_state(64))
    ops = []
    pairs = iter(PAIRS * 8)
    for k, n in WIDE:
        wide = litt43.random_form("real", k, n, seed=next(seeds))
        ops.append(_real_op(f"real {k}x{n}", wide, next(pairs)))
        # the same entries, transposed: ||A^T|| = ||A||
        ops.append(_real_op(f"real {n}x{k}", litt43.transpose(wide), next(pairs)))
    for n in SQUARE:
        form = litt43.random_form("real", n, n, seed=next(seeds))
        ops.append(_real_op(f"real {n}x{n}", form, next(pairs)))
    for k, n, m, refine in COMPLEX:
        form = litt43.random_form("complex", k, n, seed=next(seeds))
        tag = " refine" if refine else ""
        ops.append(_complex_op(f"complex {k}x{n} M={m}{tag}", form, m, refine, next(pairs)))
    return ops


# ---------------------------------------------------------------------------
# averages: exact and quadrature Khinchin-type averages
# ---------------------------------------------------------------------------

RADEMACHER = (16, 18, 20, 22)
# The median op is steinhaus N=4 Q=64 (about 2.5 ms); its neighbours in cost
# stay at least 2x away, so the median never mixes two ops' samples.
E_M = ((3, 8), (4, 7), (8, 5), (8, 6), (8, 8))
STEINHAUS = ((2, 512), (3, 256), (4, 64), (4, 128), (5, 64), (6, 16), (6, 24), (6, 36))
R_VALUES = ("2", "3", "4", "inf")


def _average_op(label, average, coeffs, r, ceiling):
    r_value = math.inf if r == "inf" else float(r)

    def run():
        result = average(coeffs)
        return [result.value, result.error_bound, litt43.lr_norm(coeffs, r_value)]

    def check(out):
        value, _, lr = out
        if not lr / value <= ceiling + CEILING_SLACK:
            return f"l_{r}/average = {lr / value!r} exceeds the ceiling {ceiling!r}"
        return None

    return Op(label, run, check)


def averages(seed: int, workdir: Path) -> List[Op]:
    rng = np.random.default_rng([seed, 2])
    rs = iter(R_VALUES * 8)
    ops = []
    for n in RADEMACHER:
        r = next(rs)
        ceiling = 2.0 ** _inv(r)
        ops.append(_average_op(f"rademacher N={n} r={r}",
                               lambda c: litt43.rademacher_average(c),
                               rng.standard_normal(n), r, ceiling))
    for m, n in E_M:
        r = next(rs)
        ceiling = _FOUR_OVER_PI ** _inv(r) / r_m(m)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ops.append(_average_op(f"e_m M={m} N={n} r={r}",
                               lambda c, m=m: litt43.e_m_average(c, m), coeffs, r, ceiling))
    for n, q in STEINHAUS:
        # r = 2, where the Steinhaus ceiling 2/sqrt(pi) is sharp
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ops.append(_average_op(f"steinhaus N={n} Q={q}",
                               lambda c, q=q: litt43.steinhaus_expectation(c, q=q),
                               coeffs, "2", _TWO_OVER_SQRT_PI))
    return ops


# ---------------------------------------------------------------------------
# climb: seeded hill climbs ending in a checkpoint round trip
# ---------------------------------------------------------------------------

CLIMB_RESTARTS = 2
CLIMB_STEPS = 1000
CLIMBS = (("form", "real", 2), ("form", "complex", 2), ("form", "real", 3),
          ("rademacher", "real", 4), ("rademacher", "real", 8))


def _plain_witness(witness):
    values = witness.entries if isinstance(witness, litt43.BilinearForm) else witness.values
    flat = np.asarray(values).ravel()
    if np.iscomplexobj(flat):
        return [[float(z.real), float(z.imag)] for z in flat]
    return [float(x) for x in flat]


def _climb_op(label, search, checkpoint):
    def run():
        result = search()
        litt43.checkpoint_save(result, checkpoint)
        loaded = litt43.checkpoint_load(checkpoint)
        again = litt43.evaluate_witness(loaded)
        return [result.best_ratio, result.optimistic_ratio, result.ceiling,
                bool(result.falsification), [list(ev) for ev in result.improved_at],
                _plain_witness(result.witness), loaded.best_ratio, again]

    def check(out):
        best, _, ceiling, falsified, _, _, loaded_best, again = out
        if falsified:
            return f"best_ratio {best!r} falsifies the ceiling {ceiling!r}"
        if loaded_best != best:
            return f"checkpoint round trip changed best_ratio {best!r} -> {loaded_best!r}"
        if again != best:
            return f"evaluate_witness gives {again!r}, best_ratio is {best!r}"
        return None

    return Op(label, run, check)


def climb(seed: int, workdir: Path) -> List[Op]:
    ss = np.random.SeedSequence([seed, 3])
    seeds = [int(s) % 2**31 for s in ss.generate_state(len(CLIMBS))]
    pair = ExponentPair.of("4/3", "4/3")
    ops = []
    for i, ((kind, field, size), climb_seed) in enumerate(zip(CLIMBS, seeds)):
        cfg = SearchConfig(restarts=CLIMB_RESTARTS, steps=CLIMB_STEPS, seed=climb_seed,
                           dims=(size, size))
        if kind == "form":
            label = f"climb {field} {size}x{size}"
            search = (lambda cfg=cfg, field=field:
                      litt43.maximize_ratio(field, pair, cfg, m=8))
        else:
            label = f"climb rademacher N={size}"
            search = (lambda cfg=cfg, size=size:
                      litt43.maximize_khinchin_ratio("rademacher", 2, size, cfg))
        ops.append(_climb_op(label, search, workdir / f"climb-{i}.json"))
    return ops


# ---------------------------------------------------------------------------
# verify-fast: the headline command, end to end through the CLI
# ---------------------------------------------------------------------------

# The op is the README's headline command, `litt43 verify --suite fast
# --seed 1`, whatever the workload seed: at this commit the fast suite fails
# `steinhaus_sharp_point` on many other seeds (26 of seeds 1-60), a defect of
# the program that ``known_defects`` reports on every run instead.
VERIFY_SEED = 1


def verify_fast(seed: int, workdir: Path) -> List[Op]:
    report = workdir / "verify-fast-report.json"
    argv = ["verify", "--suite", "fast", "--seed", str(VERIFY_SEED), "--report", str(report)]

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            code = litt43.cli.main(argv)
        return [code, report.read_text(encoding="ascii")]

    def check(out):
        code, text = out
        doc = json.loads(text)
        if code != 0 or doc.get("all_passed") is not True:
            failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
            return f"exit code {code}, failed checks {failed}"
        if doc.get("suite") != "fast" or doc.get("seed") != VERIFY_SEED:
            return f"report is for suite {doc.get('suite')!r} seed {doc.get('seed')!r}"
        return None

    return [Op(f"verify fast seed={VERIFY_SEED}", run, check)]


def known_defects(name: str, seed: int) -> List[str]:
    """Defects of the program that the workload's ops do not exercise, for ``seed``.

    verify-fast pins its op to VERIFY_SEED; this runs the check that fails on
    other seeds at the workload seed, so the failure stays visible.
    """
    if name != "verify-fast":
        return []
    report = litt43.verify.run_suite("fast", seed=seed, only=["steinhaus_sharp_point"])
    return [f"verify --suite fast --seed {seed}: {c['name']} fails, margin {c['margin']!r}, "
            f"best ratio {c['details']['best_final_ratio']!r}"
            for c in report["checks"] if not c["passed"]]


BUILDERS = {"certify": certify, "averages": averages, "climb": climb,
            "verify-fast": verify_fast}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, workdir: Path) -> List[Op]:
    """The op cycle of workload ``name`` for ``seed``."""
    return BUILDERS[name](seed, workdir)

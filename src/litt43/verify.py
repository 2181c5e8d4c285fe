"""Self-verification suites: budgeted runs of the acceptance checks.

Each check exercises one certified statement end to end and reports a
*margin*: the smallest signed distance by which the data cleared the
assertion (negative means violation).  Checks draw all randomness from
seeds derived deterministically from the suite seed, so a report is a
pure function of (suite, seed) and serializes to identical bytes on
every run.

Ceilings can be scaled per check through ``overrides`` (fault injection
for testing the harness itself): a scale below 1 tightens the ceiling
and should make the corresponding check fail by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from . import __version__
from .exponents import (CEILING_SLACK, ExponentPair, _reciprocal_grid, classify_region,
                        conjugate, real_constant)
from .forms import (BilinearForm, _mixed_norms, form_from_json, form_to_json, mixed_norm,
                    random_form, witness_a0)
from .jsonio import canonical_dumps
from .khinchin import (_mean_abs, _rademacher_means, blei_bound_check, ceiling,
                       khinchin_ratio, lr_norm, steinhaus_expectation)
from .opnorm import (_real_norms, complex_norm_bounds, complex_norm_discrete, r_m,
                     real_sup_norm)
from .search import (SearchConfig, checkpoint_load, checkpoint_save,
                     maximize_khinchin_ratio, maximize_ratio)

__all__ = ["CheckResult", "run_suite", "CHECK_NAMES", "FAST_PRESET"]

_SQRT2 = math.sqrt(2.0)


def _means_and_lr_norms(vectors: list, mean, r_values):
    """(mean(c), [lr_norm(c, r) for r in r_values]) for each c in vectors,
    length by length from one stack each; ``mean`` averages over Omega_M^N.
    The l_r norm of c is the (r, 1) norm of c as a 1 x n matrix."""
    for n in sorted({c.size for c in vectors}):
        stack = np.stack([c for c in vectors if c.size == n])
        norms = _mixed_norms(stack[:, None, :], r_values, (1.0,))[:, :, 0]
        yield from zip(mean(stack).tolist(), norms.tolist())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    details: dict


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_witness_sharpness(seed: int, grid: int = 20,
                            ceiling_scale: float = 1.0) -> CheckResult:
    """A0 attains ratio 2^(1/a+1/b-1) exactly on the whole admissible grid."""
    tol = 1e-12
    a0 = witness_a0("real")
    norm = real_sup_norm(a0)
    invs, ps = _reciprocal_grid(grid)
    norms = _mixed_norms(a0.entries[None], ps, ps)[0]
    worst = 0.0
    count = 0
    regions = set()
    for i, ia in enumerate(invs):
        for j, ib in enumerate(invs):
            if ia + ib > 1.5:
                continue
            count += 1
            pair = ExponentPair.of(ps[i], ps[j])
            regions.add(classify_region(pair).value)
            target = 2.0 ** (ia + ib - 1.0) * ceiling_scale
            worst = max(worst, abs(norms[i, j] / norm - target) / target)
    # on RII the formula ceiling is 1 and the one-entry form attains it
    single = BilinearForm("real", [[1.0]])
    pair_rii = ExponentPair.of(3.0, 3.0)
    attained = mixed_norm(single, pair_rii).value / real_sup_norm(single)
    rii_err = abs(attained - 1.0)
    margin = tol - max(worst, rii_err)
    return CheckResult(
        name="witness_sharpness", passed=margin >= 0.0, margin=margin,
        details={"grid_points": count, "regions": sorted(regions),
                 "worst_rel_err": worst, "rii_attained_err": rii_err})


def check_real_upper_bound(seed: int, forms_per_shape: int = 1000,
                           shapes=(2, 4, 8, 12), grid: int = 20,
                           ceiling_scale: float = 1.0) -> CheckResult:
    """No random form beats the ceiling 2^max(0, 1/a+1/b-1) anywhere on the grid."""
    slack = 1e-9
    invs, ps = _reciprocal_grid(grid)
    admissible = np.add.outer(invs, invs) <= 1.5
    ceilings = np.array([real_constant(ExponentPair.of(ps[i], ps[j])).exact
                         for i, j in zip(*np.nonzero(admissible))]) * ceiling_scale
    min_margin = math.inf
    checked = 0
    rng_index = 0
    for n in shapes:
        for dist in ("gaussian", "sign"):
            seeds = range(seed + rng_index, seed + rng_index + forms_per_shape)
            stack = np.stack([random_form("real", n, n, dist, seed=s).entries for s in seeds])
            rng_index += forms_per_shape
            ratios = _mixed_norms(stack, ps, ps) / _real_norms(stack)[:, None, None]
            for row in ceilings + slack - ratios[:, admissible]:
                min_margin = min(min_margin, float(row.min()))
                checked += 1
    return CheckResult(
        name="real_upper_bound", passed=min_margin >= 0.0, margin=min_margin,
        details={"forms": checked, "grid_points": int(admissible.sum()),
                 "shapes": list(shapes)})


def check_lemma_ceilings(seed: int, forms: int = 1000,
                         ceiling_scale: float = 1.0) -> CheckResult:
    """Row-sum, conjugate-outer, interpolation and transpose inequalities."""
    slack = 1e-9
    a_values = [2.0, 3.0, 4.0, math.inf]
    mink_exponents = [1.0, 4.0 / 3.0, 2.0, 3.0, math.inf]
    # b values of the interpolation inequality at each finite a; they
    # include 1 and a*, which cover every pair the other inequalities read
    interp_b = {a: (1.0, 0.5 * (1.0 + conjugate(a).value), conjugate(a).value)
                for a in a_values[:-1]}
    mink_pairs = [(a, b) for ia, a in enumerate(mink_exponents) for b in mink_exponents[ia:]]
    # (a, b, side): the mixed norm of each form (side 0) or its transpose (1)
    keys = {(math.inf, 1.0, 0), (2.0, 2.0, 0), *((a, b, 0) for a, b in mink_pairs),
            *((b, a, 1) for a, b in mink_pairs),
            *((a, b, 0) for a, bs in interp_b.items() for b in bs)}
    exps = sorted({p for a, b, _ in keys for p in (a, b)})
    at = {p: i for i, p in enumerate(exps)}
    shapes = {}
    for t in range(forms):
        shapes.setdefault((2 + (t % 7), 2 + ((t * 3 + 1) % 7)), []).append(t)
    values = [None] * forms  # per form, every value the inequalities read
    for (k, n), ts in shapes.items():
        stack = np.stack([random_form("real", k, n, "gaussian" if t % 2 == 0 else "sign",
                                      seed=seed + t).entries for t in ts])
        norms = _real_norms(stack).tolist()
        grids = [_mixed_norms(s, exps, exps).tolist() for s in (stack, np.swapaxes(stack, -1, -2))]
        for i, t in enumerate(ts):
            values[t] = {"norm": norms[i], **{(a, b, side): grids[side][i][at[a]][at[b]]
                                              for a, b, side in keys}}
    min_margin = math.inf
    worst_kind = ""

    def note(kind, margin):
        nonlocal min_margin, worst_kind
        if margin < min_margin:
            min_margin, worst_kind = margin, kind

    for v in values:
        norm = v["norm"]
        sup_row = v[math.inf, 1.0, 0]
        frob = v[2.0, 2.0, 0]
        for a in a_values:
            a_star = conjugate(a).value
            m_a1 = v[a, 1.0, 0]
            m_aas = v[a, a_star, 0]
            inv_a = 0.0 if math.isinf(a) else 1.0 / a
            note("row_sum", (2.0 ** inv_a) * norm * ceiling_scale + slack - m_a1)
            note("conjugate_outer", norm * ceiling_scale + slack - m_aas)
            if not math.isinf(a):
                theta0 = (a - 2.0) / a
                note("interp_theta0",
                     (sup_row ** theta0) * (frob ** (1.0 - theta0)) * ceiling_scale
                     + slack - m_aas)
                for b in interp_b[a]:
                    theta1 = 1.0 - a + a / b
                    note("interp_theta1",
                         (m_a1 ** theta1) * (m_aas ** (1.0 - theta1)) * ceiling_scale
                         + slack - v[a, b, 0])
        for a, b in mink_pairs:
            note("minkowski_transpose", v[b, a, 1] * ceiling_scale + slack - v[a, b, 0])
    return CheckResult(
        name="lemma_ceilings", passed=min_margin >= 0.0, margin=min_margin,
        details={"forms": forms, "tightest": worst_kind})


def check_search_sharpness(seed: int, restarts: int = 50, steps: int = 2000,
                           ceiling_scale: float = 1.0) -> CheckResult:
    """Hill climbing from scratch recovers the sharp ratio sqrt(2) at (4/3, 4/3)."""
    tol = 1e-9
    cfg = SearchConfig(restarts=restarts, steps=steps, scale=0.5, seed=seed, dims=(2, 2))
    result = maximize_ratio("real", ExponentPair.of(4.0 / 3.0, 4.0 / 3.0), cfg)
    target = _SQRT2 * ceiling_scale
    margin = result.best_ratio - (target - tol)
    return CheckResult(
        name="search_sharpness", passed=margin >= 0.0 and not result.falsification,
        margin=min(margin, result.ceiling + CEILING_SLACK - result.best_ratio),
        details={"best_ratio": result.best_ratio, "restarts": result.restarts_run,
                 "improvements": len(result.improved_at)})


def check_khinchin_sharpness(seed: int, samples: int = 10000, max_n: int = 16,
                             search_restarts: int = 20, search_steps: int = 5000,
                             ceiling_scale: float = 1.0) -> CheckResult:
    """l_r vs Rademacher-average ratios: (1,1) attains 2^(1/r); nothing beats it."""
    exact_tol = 1e-12
    r_values = [2.0, 2.5, 3.0, 4.0, math.inf]
    ceilings = [ceiling("rademacher", r)[0] for r in r_values]
    worst_exact = 0.0
    for r, top in zip(r_values, ceilings):
        worst_exact = max(worst_exact, abs(khinchin_ratio([1.0, 1.0], r) - top))
    rng = np.random.default_rng(seed)
    vectors = []
    for t in range(samples):
        n = int(rng.integers(1, max_n + 1))
        kind = t % 3
        if kind == 0:
            c = rng.standard_normal(n)
        elif kind == 1:
            c = rng.choice([-1.0, 1.0], size=n)
        else:
            c = rng.standard_normal(n) * (rng.random(n) < 0.5)
        if not np.any(c):
            c[0] = 1.0
        vectors.append(c)
    min_margin = math.inf
    for denom, lrs in _means_and_lr_norms(vectors, _rademacher_means, r_values):
        for lr, top in zip(lrs, ceilings):
            ratio = lr / denom
            min_margin = min(min_margin, top * ceiling_scale + exact_tol - ratio)
    searched = maximize_khinchin_ratio(
        "rademacher", 2.0, 8,
        SearchConfig(restarts=search_restarts, steps=search_steps, scale=0.5,
                     seed=seed, dims=(1, 8)))
    min_margin = min(min_margin,
                     ceilings[0] * ceiling_scale + exact_tol - searched.best_ratio)
    attain_margin = searched.best_ratio - (ceilings[0] * ceiling_scale - 1e-9)
    margin = min(exact_tol - worst_exact, min_margin, attain_margin)
    return CheckResult(
        name="khinchin_sharpness", passed=margin >= 0.0, margin=margin,
        details={"worst_exact_err": worst_exact, "samples": samples,
                 "searched_best": searched.best_ratio})


def check_steinhaus_closed_form(seed: int, quad_nodes: int = 512,
                                limit_top: int = 512, vectors: int = 20,
                                max_n: int = 4,
                                ceiling_scale: float = 1.0) -> CheckResult:
    """E|e1 + e2 scaled| = 4/pi, and the two evaluation methods agree."""
    target = (4.0 / math.pi) * ceiling_scale
    quad = steinhaus_expectation([1.0, 1.0], method="quadrature", q=quad_nodes)
    quad_err = abs(quad.value - target)
    schedule = [limit_top // 8, limit_top // 4, limit_top // 2, limit_top]
    limit = steinhaus_expectation([1.0, 1.0], method="e_m_limit", schedule=schedule)
    limit_err = abs(limit.value - target)
    rng = np.random.default_rng(seed)
    cross_worst = 0.0
    cross_schedule = [max(4, limit_top // 4), max(8, limit_top // 2)]
    for _ in range(vectors):
        n = int(rng.integers(2, max_n + 1))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q = steinhaus_expectation(c, method="quadrature", q=256).value
        e = steinhaus_expectation(c, method="e_m_limit", schedule=cross_schedule).value
        cross_worst = max(cross_worst, abs(q - e))
    margin = min(1e-8 - quad_err, 1e-4 - limit_err, 1e-4 - cross_worst)
    return CheckResult(
        name="steinhaus_closed_form", passed=margin >= 0.0, margin=margin,
        details={"quadrature_err": quad_err, "limit_err": limit_err,
                 "cross_method_worst": cross_worst, "vectors": vectors})


def check_torus_sandwich(seed: int, forms: int = 100,
                         m_values=(3, 4, 6, 8, 12),
                         ceiling_scale: float = 1.0) -> CheckResult:
    """Grid norms nest into the certified interval of the M = 24 norm."""
    min_margin = math.inf
    r24 = r_m(24)
    for t in range(forms):
        rng = np.random.default_rng(seed + t)
        k = int(rng.integers(1, 5))
        n = int(rng.integers(2, 5))
        form = random_form("complex", k, n, "gaussian", seed=seed + t)
        n24 = complex_norm_discrete(form, 24)
        scale = max(n24, 1.0)
        cap24 = n24 / r24  # certified upper bound on the true norm
        for m in m_values:
            bounds = complex_norm_bounds(form, m, refine=True)
            # nesting: T_M subset of T_24 for every listed M
            min_margin = min(min_margin, (n24 - bounds.discrete_norm) / scale + 1e-12)
            # the certified interval brackets the true norm, located via M = 24
            min_margin = min(min_margin,
                             (bounds.upper * ceiling_scale - n24) / scale + 1e-12)
            min_margin = min(min_margin, (cap24 * ceiling_scale - bounds.lower) / scale + 1e-12)
    a0 = witness_a0("complex")
    b4 = complex_norm_bounds(a0, 4, refine=True)
    a0_err = max(abs(b4.lower - 2.0 * _SQRT2) / (2.0 * _SQRT2),
                 abs(b4.upper - 4.0) / 4.0)
    margin = min(min_margin, 1e-12 - a0_err)
    return CheckResult(
        name="torus_sandwich", passed=margin >= 0.0, margin=margin,
        details={"forms": forms, "m_values": list(m_values), "a0_rel_err": a0_err})


def check_blei_khinchine(seed: int, vectors: int = 300, max_n: int = 6,
                         search_restarts: int = 6, search_steps: int = 200,
                         m_values=(2, 3, 4, 8, 16),
                         ceiling_scale: float = 1.0) -> CheckResult:
    """l_r vs T_M-average ratios stay under 2^(1/r) or (4/pi)^(1/r)/R_M."""
    slack = 1e-9
    r_values = [2.0, 3.0, math.inf]
    min_margin = math.inf
    rng = np.random.default_rng(seed)
    for m in m_values:
        ceilings = {r: ceiling("e_m", r, m)[0] for r in r_values}
        drawn = []
        for _ in range(vectors):
            n = int(rng.integers(2, max_n + 1))
            drawn.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for denom, lrs in _means_and_lr_norms(drawn, lambda X: _mean_abs(X, m), r_values):
            for r, lr in zip(r_values, lrs):
                ratio = lr / denom
                min_margin = min(min_margin, ceilings[r] * ceiling_scale + slack - ratio)
        searched = maximize_khinchin_ratio(
            "e_m", 2.0, 4 if m >= 8 else max_n,
            SearchConfig(restarts=search_restarts, steps=search_steps,
                         scale=0.5, seed=seed + m, dims=(1, max_n)), m=m)
        min_margin = min(min_margin,
                         ceilings[2.0] * ceiling_scale + slack - searched.best_ratio)
    attained = blei_bound_check([1.0, 1.0], 2, 2.0)
    attain_err = abs(attained.ratio - _SQRT2)
    margin = min(min_margin, 1e-12 - attain_err)
    return CheckResult(
        name="blei_khinchine", passed=margin >= 0.0, margin=margin,
        details={"vectors_per_m": vectors, "m_values": list(m_values),
                 "m2_attainment_err": attain_err})


def check_steinhaus_sharp_point(seed: int, max_n: int = 6,
                                restarts: int = 6, steps: int = 300,
                                ceiling_scale: float = 1.0) -> CheckResult:
    """Searched Steinhaus ratios at r = 2 approach, and never beat, 2/sqrt(pi)."""
    tol = 1e-6
    top = ceiling("steinhaus", 2.0)[0] * ceiling_scale
    floor = math.pi * _SQRT2 / 4.0
    final_q = {3: 512, 4: 256, 5: 64, 6: 36}  # N = 2 is exact at any Q
    best_final = 0.0
    min_margin = math.inf
    per_dim = {}
    for n in range(2, max_n + 1):
        q_search = 32 if n <= 4 else 16
        result = maximize_khinchin_ratio(
            "steinhaus", 2.0, n,
            SearchConfig(restarts=restarts, steps=steps, scale=0.5,
                         seed=seed + n, dims=(1, n)), q=q_search)
        witness = result.witness.values
        refined = (lr_norm(witness, 2.0)
                   / steinhaus_expectation(witness, method="quadrature",
                                           q=final_q.get(n, q_search)).value)
        per_dim[str(n)] = refined
        best_final = max(best_final, refined)
        min_margin = min(min_margin, top + tol - refined)
        min_margin = min(min_margin, top + tol - result.best_ratio)
    # exploratory probe at r = 3: ceiling-safety only, no sharp target exists
    exploratory = maximize_khinchin_ratio(
        "steinhaus", 3.0, 3,
        SearchConfig(restarts=max(2, restarts // 2), steps=steps, scale=0.5,
                     seed=seed + 97, dims=(1, 3)), q=64)
    min_margin = min(min_margin,
                     exploratory.ceiling * ceiling_scale + tol - exploratory.best_ratio)
    margin = min(min_margin, best_final - (floor * ceiling_scale - tol))
    return CheckResult(
        name="steinhaus_sharp_point", passed=margin >= 0.0, margin=margin,
        details={"best_final_ratio": best_final, "per_dim": per_dim,
                 "exploratory_r3_ratio": exploratory.best_ratio,
                 "exploratory_r3_ceiling": exploratory.ceiling})


def check_roundtrips(seed: int, ceiling_scale: float = 1.0) -> CheckResult:
    """Matrix JSON and checkpoint serialization round-trip bit-exactly."""
    import tempfile
    from pathlib import Path
    ok = True
    details = {}
    form = random_form("complex", 3, 4, "gaussian", seed=seed)
    back = form_from_json(form_to_json(form))
    ok &= bool(np.array_equal(back.entries, form.entries)) and back.field == form.field
    details["matrix_roundtrip"] = bool(ok)
    cfg = SearchConfig(restarts=2, steps=40, scale=0.5, seed=seed, dims=(2, 2))
    result = maximize_ratio("real", ExponentPair.of(4.0 / 3.0, 4.0 / 3.0), cfg)
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "ckpt.json"
        checkpoint_save(result, path)
        first = path.read_bytes()
        loaded = checkpoint_load(path)
        checkpoint_save(loaded, path)
        second = path.read_bytes()
    identical = first == second
    fields_equal = (
        loaded.best_ratio == result.best_ratio
        and loaded.ceiling == result.ceiling
        and loaded.improved_at == result.improved_at
        and loaded.config == result.config
        and np.array_equal(loaded.witness.entries, result.witness.entries))
    ok &= identical and fields_equal
    details["checkpoint_bytes_identical"] = bool(identical)
    details["checkpoint_fields_equal"] = bool(fields_equal)
    margin = 1.0 if ok else -1.0
    return CheckResult(name="roundtrips", passed=bool(ok), margin=margin,
                       details=details)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

_CHECKS: Dict[str, Callable] = {
    "witness_sharpness": check_witness_sharpness,
    "real_upper_bound": check_real_upper_bound,
    "lemma_ceilings": check_lemma_ceilings,
    "search_sharpness": check_search_sharpness,
    "khinchin_sharpness": check_khinchin_sharpness,
    "steinhaus_closed_form": check_steinhaus_closed_form,
    "torus_sandwich": check_torus_sandwich,
    "blei_khinchine": check_blei_khinchine,
    "steinhaus_sharp_point": check_steinhaus_sharp_point,
    "roundtrips": check_roundtrips,
}

CHECK_NAMES = tuple(_CHECKS)

FAST_PRESET: Dict[str, dict] = {
    "witness_sharpness": {"grid": 20},
    "real_upper_bound": {"forms_per_shape": 40, "shapes": (2, 4, 8), "grid": 10},
    "lemma_ceilings": {"forms": 120},
    "search_sharpness": {"restarts": 10, "steps": 1500},
    "khinchin_sharpness": {"samples": 1500, "max_n": 12, "search_restarts": 6,
                           "search_steps": 5000},
    "steinhaus_closed_form": {"quad_nodes": 512, "limit_top": 256,
                              "vectors": 6, "max_n": 3},
    "torus_sandwich": {"forms": 15, "m_values": (3, 4, 8)},
    "blei_khinchine": {"vectors": 60, "max_n": 5, "search_restarts": 3,
                       "search_steps": 120, "m_values": (2, 4, 8)},
    "steinhaus_sharp_point": {"max_n": 3, "restarts": 4, "steps": 250},
    "roundtrips": {},
}

# Seed offset of each check by name, frozen at its registry position when
# seeds were positional, so adding or removing a check re-seeds no other.
_SEED_OFFSETS: Dict[str, int] = {name: i * 104729 for i, name in enumerate((
    "witness_sharpness", "real_upper_bound", "lemma_ceilings", "search_sharpness",
    "khinchin_sharpness", "steinhaus_closed_form", "torus_sandwich",
    "blei_khinchine", "steinhaus_sharp_point", "roundtrips"))}


def run_suite(suite: str = "fast", seed: int = 1,
              overrides: Optional[Dict[str, float]] = None,
              only: Optional[list] = None) -> dict:
    """Run a verification suite; returns the (canonically serializable) report."""
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}; use 'fast' or 'full'")
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(_CHECKS)
    if unknown:
        raise ValueError(f"ceiling overrides for unknown checks: {sorted(unknown)}")
    results = []
    for name, fn in _CHECKS.items():
        if only is not None and name not in only:
            continue
        # the full suite runs every check at its defaults
        kwargs = dict(FAST_PRESET[name]) if suite == "fast" else {}
        kwargs["ceiling_scale"] = float(overrides.get(name, 1.0))
        check = fn(seed=seed + _SEED_OFFSETS[name], **kwargs)
        results.append(check)
    report = {
        "tool": "litt43",
        "version": __version__,
        "suite": suite,
        "seed": seed,
        "all_passed": bool(all(c.passed for c in results)),
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "margin": float(c.margin),
             "details": c.details}
            for c in results
        ],
    }
    return report


def report_to_json(report: dict) -> str:
    return canonical_dumps(report) + "\n"

"""Khinchin-type averages of scalar coefficient vectors.

Three averages of |sum_n a_n s_n| are computed for a coefficient vector
(a_n), differing in where the multipliers s_n live:

* Rademacher: s_n independent uniform on {-1, +1} (the classical dyadic
  model sign(sin(2^n pi t)) on [0, 1]).  Computed exactly: complex
  vectors and real ones with N <= 16 by enumerating sign patterns, longer
  real vectors by meet in the middle (Horowitz & Sahni, J. ACM 21, 1974)
  in about 2^(N/2) steps.
* roots of unity: s_n uniform on T_M = {exp(2*pi*i*j/M)}; the average is
  the exact mean over Omega_M^N.  M = 2 reproduces the Rademacher average
  through the identical computation.
* Steinhaus: s_n uniform on the whole unit circle, i.e. the N-fold torus
  integral of |sum a_n e^(i t_n)|.  Evaluated either by quadrature, where
  the first angle is integrated exactly (a complete elliptic integral,
  computed by the arithmetic-geometric mean) and the product trapezoid
  rule takes the N - 2 angles after it, or as a root-of-unity limit along
  an increasing schedule of M.  The exact inner integral means the
  quadrature is no longer the T_Q mean; N = 2 is exact.

Every average pins one multiplier (rotation invariance makes this
exact).  An enumeration runs the pattern walk of ``litt43.opnorm`` and
accumulates its block sums through ``math.fsum``, so equal input
multisets produce bit-equal averages.  The meet in the middle counts, for
each half sum, the sign of its sum with every half sum of the other side;
the average is then an exact integer combination of the coefficients,
rounded once (``_split_mean``).

The comparison constants live in ``ceiling``: the l_r norm of the
coefficients never exceeds 2^(1/r) times the Rademacher average
(attained by (1, 1)), and for the T_M average the certified ceiling is
(4/pi)^(1/r) / R_M for M >= 3; ``blei_bound_check`` probes these ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, UndefinedRatioError
from .exponents import CEILING_SLACK, TWO_OVER_SQRT_PI, Exponent, _as_exponent, _as_integer
from .forms import _mixed_norms
from .opnorm import (DEFAULT_EVAL_BUDGET, _finite, _overflow_safe, _partial_sums, _roots,
                     _walk, r_m)

__all__ = [
    "CoefficientVector",
    "AverageResult",
    "BleiBoundReport",
    "lr_norm",
    "rademacher_average",
    "khinchin_ratio",
    "e_m_average",
    "steinhaus_expectation",
    "blei_bound_check",
    "ceiling",
    "RADEMACHER_CAP",
    "QUADRATURE_DIM_CAP",
]

RADEMACHER_CAP = 40
QUADRATURE_DIM_CAP = 8

# Complex Rademacher averages walk 2^(N-1) patterns: refused above this N
# even when `cap` is larger.
_WALK_CAP = 30
# Real vectors up to this length keep the walk, and with it the bits of the
# verify reports (samples of N <= 16) and of the climber's batched windows;
# longer ones meet in the middle (N = 22: 0.24 ms against 4.5 ms walked,
# 2-core Xeon, numpy 2.4.6).
_WALK_MAX_N = 16

_TABLE_CAP = 1 << 20  # patterns per tabulated block of the walk
# Nodes per tabulated block of the quadrature walk: smaller blocks pay the
# AGM's fixed ufunc cost more often, larger ones fall out of cache (the
# eight Steinhaus ops of the averages benchmark, 2-core host, medians of 5:
# 154 / 137 / 117 / 199 / 249 ms at 2^20 / 2^18 / 2^16 / 2^14 / 2^12).
_AGM_TABLE_CAP = 1 << 16
# The work of one AGM node in table elements, by which the walk prices a
# quadrature stack and the climber a Steinhaus evaluation: on tables of 2^12
# elements (batches of 1 and 16; 2-core Xeon, numpy 2.4.6) a node took
# 52-53 ns against 7.3-8.8 ns per term of the sign walk.
_AGM_NODE_COST = 6
# AGM passes: at the smallest relative gap two doubles can have,
# |a - rho| / (a + rho) >= 2^-54, nine reach the limit; the tenth is margin.
_AGM_PASSES = 10


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Immutable scalar sequence (a_n), tagged real or complex."""

    field: str
    values: np.ndarray

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        dtype = np.float64 if self.field == "real" else np.complex128
        arr = np.array(self.values, dtype=dtype).reshape(-1)
        if arr.size < 1:
            raise ValueError("coefficient vector must have N >= 1 entries")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size


Coefficients = Union[CoefficientVector, Sequence, np.ndarray]


def _values(c: Coefficients) -> np.ndarray:
    if isinstance(c, CoefficientVector):
        return c.values
    arr = np.asarray(c)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("coefficients must form a non-empty 1-D sequence")
    # CoefficientVector's checks, NaN and +-inf included, hold for plain sequences too
    return CoefficientVector("complex" if np.iscomplexobj(arr) else "real", arr).values


@dataclass(frozen=True)
class AverageResult:
    value: float
    kind: str            # "rademacher" | "e_m" | "steinhaus"
    method: str          # "enumeration" | "quadrature" | "e_m-limit"
    error_bound: Optional[float] = None
    m: Optional[int] = None

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class BleiBoundReport:
    m: int
    r: Exponent
    ratio: float
    ceiling: float
    witness: tuple
    violation: bool


def _lr_norms(A: np.ndarray, r: Exponent) -> np.ndarray:
    """lr_norm of each row of the stack A (B, N), as (B,): the (r, 1) norm of a 1 x N matrix."""
    return _mixed_norms(A[:, None, :], (r.value,), (1.0,))[:, 0, 0]


def lr_norm(c: Coefficients, r) -> float:
    """(sum |a_n|^r)^(1/r), supremum for r = oo.

    Above 10,000 entries the power sum is taken with math.fsum, as in
    ``mixed_norm``: exactly rounded, so independent of the platform.
    """
    return float(_lr_norms(_values(c)[None], _as_exponent(r))[0])


def _block_sum(mods: np.ndarray, arena) -> np.ndarray:
    return np.add.reduce(mods, axis=(-2, -1))


def _mean_abs(A: np.ndarray, m: int, budget: Optional[int] = None) -> np.ndarray:
    """Exact mean of |sum_n a_n w_n| over w in Omega_M^N, for each row of A (B, N).

    The last multiplier is pinned to 1 (exact by rotation invariance), so
    the walk sums M^(N-1) terms per row, which is what ``budget`` counts.
    At M = 2, real rows longer than _WALK_MAX_N meet in the middle
    (``_split_mean``), one row at a time, under the same budget: the path
    depends on N and the dtype alone, never on the batch.  Entries near the
    top of the double range are walked at a power-of-two scale
    (``opnorm._overflow_safe``); a mean is inf only beyond the double range.
    """
    n = A.shape[-1]
    terms = m ** (n - 1)
    if budget is not None and terms > budget:
        raise CapacityError(
            f"Omega_{m}^{n} averaging needs {terms} terms (after fixing the "
            f"global phase) but the budget is {budget}"
        )

    def means(A):
        if m == 2 and n > _WALK_MAX_N and not np.iscomplexobj(A):
            return np.array([_split_mean(a) for a in A])
        sums = _walk(A[..., -1:], A[..., None, :-1], m, _TABLE_CAP, _block_sum)
        # fsum of a single block sum is that sum, bit for bit
        totals = sums[0] if len(sums) == 1 else np.array([math.fsum(row) for row in zip(*sums)])
        return totals / terms

    return _overflow_safe(means, A, terms * n)


def _digit_sums(counts: np.ndarray, signs: np.ndarray) -> list:
    """sum_t counts[t] (1 - 2 d_j(t)) for each base-2 digit d_j of t, least significant first.

    ``counts`` has 2^L integer entries; its index splits into a low and a
    high half of digits, each summed out against ``signs`` (the 1 - 2 d_j
    of each index, as rows), whose rows and columns cover both halves.
    """
    digits = counts.size.bit_length() - 1
    low = digits // 2
    grid = counts.reshape(-1, 1 << low)
    return ((grid.sum(axis=0) @ signs[:1 << low, :low]).tolist()
            + (grid.sum(axis=1) @ signs[:len(grid), :digits - low]).tolist())


def _split_mean(a: np.ndarray) -> float:
    """Rademacher average of one real vector a (N >= 3) by meet in the middle.

    The last sign is pinned to +1, as in the walk.  With F = N - 1 free
    signs, u runs over the 2^floor(F/2) sums of the pinned coefficient and
    the first half, v over the 2^ceil(F/2) sums of the other half, each
    tabulated by ``opnorm._partial_sums``.  Sorting both sides, two
    ``searchsorted`` passes of the u against the sorted -v count for every
    u and every v how many partners give u + v > 0 and u + v < 0; the
    difference c is the sum of the pattern signs sigma over that u or v.
    Then sum_p |s_p| = sum_p sigma_p s_p = sum_n a_n w_n, where each
    weight w_n sums c times the sign of a_n over its side's index, so the
    w_n are exact integers and the sum is taken exactly and rounded once.

    So the result is the correctly rounded mean of sigma_p s_p, s_p the
    exact signed sum, sigma_p the sign of the sum of the two rounded half
    sums.  It is the correctly rounded exact mean unless some sigma_p
    disagrees with s_p, which needs |s_p| below the rounding error of its
    half sums (never when those sums are exact, as for integers); such a
    pattern lowers the sum by 2 |s_p|.  A sign flip of a_n (n < N) only
    permutes each side, so the bits do not move.  Peak memory grows as
    2^(F/2): about 32 MB of arrays at N = 40.
    """
    free = a.size - 1
    half = free // 2
    points = _roots(2)
    table = _partial_sums(np.zeros(1), a[None, half:free], points, None)[0]  # the v
    v_order = np.argsort(table)[::-1]
    np.negative(table[v_order], out=table)  # the -v, ascending
    u = _partial_sums(a[-1:], a[None, :half], points, None)[0]
    u_order = np.argsort(u)
    u = u[u_order]
    below = np.searchsorted(table, u, "left")  # per u: #{v: u + v > 0}
    upto = np.searchsorted(table, u, "right")  # per u: #{v: u + v >= 0}
    del table, u
    digits = (free - half + 1) // 2  # the most digits _digit_sums sums out at once
    signs = 1 - 2 * ((np.arange(1 << digits)[:, None] >> np.arange(digits)) & 1)
    counts = np.empty_like(below)
    counts[u_order] = below + upto - v_order.size
    u_weights = _digit_sums(counts, signs)
    pinned = int(counts.sum())
    del counts, u_order
    # the v at table position i: #{u: u + v > 0} = #{u: below > i} and
    # #{u: u + v < 0} = #{u: upto <= i}
    ends = np.concatenate((below, upto))
    del below, upto
    at_most = np.bincount(ends, minlength=v_order.size + 1)
    del ends
    np.cumsum(at_most, out=at_most)
    counts = np.empty_like(at_most[:-1])
    counts[v_order] = np.subtract(1 << half, at_most[:-1], out=at_most[:-1])
    weights = u_weights + _digit_sums(counts, signs) + [pinned]
    # sum_n a_n w_n over the common power-of-two denominator, rounded once
    total, scale = 0, 1
    for x, w in zip(a.tolist(), weights):
        p, q = x.as_integer_ratio()  # q is a power of two
        if q > scale:
            total, scale = total * (q // scale), q
        total += p * w * (scale // q)
    return total / (scale << free)


def _rademacher_means(A: np.ndarray, cap: int = RADEMACHER_CAP) -> np.ndarray:
    """Exact Rademacher average of each row of the stack A (B, N)."""
    n = A.shape[-1]
    if np.iscomplexobj(A) and n > min(cap, _WALK_CAP):
        raise CapacityError(
            f"Rademacher enumeration of N = {n} complex coefficients needs 2^{n - 1} "
            f"patterns but the cap is N = {min(cap, _WALK_CAP)}"
            + ("; raise `cap` explicitly to proceed" if cap < _WALK_CAP
               else f" for complex vectors (2^{_WALK_CAP - 1} patterns) whatever `cap`")
        )
    if n > cap:
        half = (n - 1) // 2
        raise CapacityError(
            f"Rademacher averaging of N = {n} coefficients needs 2^{n - 1} sign patterns, "
            f"or 2^{half} + 2^{n - 1 - half} half sums met in the middle, but the cap is "
            f"N = {cap}; raise `cap` explicitly to proceed"
        )
    return _mean_abs(A, 2)


def rademacher_average(c: Coefficients, cap: int = RADEMACHER_CAP) -> AverageResult:
    """Exact average of |sum eta_n a_n| over all 2^N sign patterns.

    Real vectors with N <= 16 and complex vectors enumerate the patterns;
    longer real vectors meet in the middle in about 2^(N/2) steps and
    return the correctly rounded average, up to patterns whose sum lies
    within rounding of zero (``_split_mean``).  Refused above N = ``cap``
    (40), and above N = 30 for complex vectors.
    """
    value = _finite(float(_rademacher_means(_values(c)[None], cap)[0]), "the average")
    return AverageResult(value=value, kind="rademacher", method="enumeration", error_bound=0.0)


def khinchin_ratio(c: Coefficients, r) -> float:
    """l_r norm over Rademacher average; at most 2^(1/r) for any scalars.

    r must lie in [2, oo]; the ceiling is attained by (1, 1).
    """
    r = _as_exponent(r)
    if not r.is_inf and r.value < 2.0:
        raise ValueError(f"khinchin_ratio requires r >= 2, got {r}")
    return _ratio(c, r, rademacher_average(c).value)


def _ratio(c: Coefficients, r, average: float) -> float:
    """||c||_r / average, refused for the zero vector."""
    numerator = lr_norm(c, r)
    if numerator == 0.0:
        raise UndefinedRatioError("ratio undefined for the zero vector")
    return numerator / average


def e_m_average(c: Coefficients, m: int,
                budget: int = DEFAULT_EVAL_BUDGET) -> AverageResult:
    """Exact average over the M-th roots of unity, M an integer >= 2; M = 2 is Rademacher."""
    m = _as_integer(m, "M", 2)
    value = _finite(float(_mean_abs(_values(c)[None], m, budget)[0]), "the average")
    return AverageResult(value=value, kind="e_m", method="enumeration",
                         error_bound=0.0, m=m)


def _circle_means(a: np.ndarray, rho: np.ndarray, arena=None) -> np.ndarray:
    """E_t |a e^(it) + rho| for a, rho >= 0 (a broadcast against rho), by the AGM.

    The mean is (2/pi)(a + rho) E(k), k^2 = 4 a rho / (a + rho)^2, the
    perimeter over 2 pi of the ellipse with semi-axes a + rho and |a - rho|.
    The arithmetic-geometric mean x_n, y_n of those semi-axes gives it as
    (a^2 + rho^2 - sum_n 2^(n-2) (x_n - y_n)^2) / M(a + rho, |a - rho|)
    (Borwein & Borwein, *Pi and the AGM*, 1987, ch. 1).  The pass count is
    fixed, so each element's bits depend on its own inputs alone.  Ties
    a == rho (k = 1, where M(2a, 0) = 0) take the limit 2(a + rho)/pi.
    With an ``arena`` (a carving walk's) the scratch, and so the returned
    array, is carved from it.
    """
    shape = np.shape(rho)  # a broadcasts against rho
    # pass 0 in closed form: x_1 = max(a, rho), y_1 = sqrt((a + rho) |a - rho|),
    # and its term min(a, rho)^2 leaves max(a, rho)^2 of a^2 + rho^2
    x = np.maximum(a, rho, out=arena and arena.array(shape))
    y = np.subtract(a, rho, out=arena and arena.array(shape))
    np.abs(y, out=y)
    d = np.add(a, rho, out=arena and arena.array(shape))
    y *= d
    np.sqrt(y, out=y)
    total = np.multiply(x, x, out=arena and arena.array(shape))
    w = 0.5
    for _ in range(_AGM_PASSES - 1):
        np.subtract(x, y, out=d)
        d *= d
        d *= w
        total -= d
        np.multiply(x, y, out=d)
        x += y
        x *= 0.5
        np.sqrt(d, out=y)
        w *= 2.0
    if y.all():
        return np.divide(total, x, out=total)
    # y stays 0 where a == rho (or where (a + rho) |a - rho| underflows, at
    # moduli below 1e-154 of the row's largest); 0 == a == rho divides 0 by 0
    with np.errstate(invalid="ignore"):
        return np.where(y == 0.0, (2.0 / math.pi) * (a + rho), total / x)


def _quadrature(A: np.ndarray, q: int, budget: int = DEFAULT_EVAL_BUDGET):
    """(value, error_bound) of the Steinhaus quadrature for each row of A (B, N).

    z_N is pinned to 1 (rotation invariance), z_1 is integrated exactly by
    ``_circle_means`` and the N - 2 angles between them take the product
    trapezoid rule on Omega_q, so a row costs q^(N-2) terms, which is what
    ``budget`` counts.  The value is the Richardson extrapolation
    (4 T(q) - T(q/2)) / 3 and the error bound |T(q) - T(q/2)|; N <= 2
    leaves no angle to walk, so its value is exact and its bound 0.  The
    nodes of Omega_(q/2) are the nodes of Omega_q whose digits are all
    even, so one walk sums both levels: each block's even low digits by a
    strided slice, over the blocks whose high digits are all even.
    """
    n = A.shape[-1]
    if n > QUADRATURE_DIM_CAP:
        raise CapacityError(f"quadrature supports N <= {QUADRATURE_DIM_CAP}, got N = {n}")
    q = _as_integer(q, "Q", 4, even=True)
    terms = q ** max(n - 2, 0)
    if terms > budget:
        raise CapacityError(
            f"Steinhaus quadrature at N = {n}, Q = {q} needs {terms} terms (after "
            f"fixing one angle and integrating another) but the budget is {budget}"
        )
    if n == 1:
        return np.abs(A[:, 0]), np.zeros(len(A))
    # the average is 1-homogeneous: unit rows keep the squares in range; a
    # product, since a complex quotient by top + 0j can round otherwise
    top = np.abs(A).max(axis=-1)
    top[top == 0.0] = 1.0
    # 1 / top overflows at a subnormal top: such rows are scaled by 2^600
    # first, exactly; the other rows are scaled by 1, which keeps their bits
    s = np.where(top < 2.0 ** -900, 2.0 ** 600, 1.0)
    U = (A * s[:, None]) * (1.0 / (top * s))[:, None]
    if n == 2:
        return top * _circle_means(np.abs(U[:, 0]), np.abs(U[:, 1])), np.zeros(len(A))

    def level_sums(mods, arena, a):
        means = _circle_means(a[:, None, None], mods, arena).reshape(len(a), -1)
        low = 0
        while q ** low < means.shape[-1]:
            low += 1
        grid = means.reshape((len(a),) + (q,) * low)
        even = grid[(slice(None),) + (slice(None, None, 2),) * low]
        packed = np.positive(even, out=arena and arena.array(even.shape))  # a contiguous copy
        coarse = packed.reshape(len(a), -1).sum(axis=-1)
        return np.concatenate((means.sum(axis=-1)[:, None], coarse[:, None]), axis=1)

    blocks = _walk(U[:, -1:], U[:, None, 1:-1], q, _AGM_TABLE_CAP, level_sums,
                   np.abs(U[:, 0]), unit=_AGM_NODE_COST)
    if len(blocks) == 1:
        fine, coarse = blocks[0].T
    else:
        # block h holds the high digits of h; the coarse level reads the blocks
        # whose digits are all even (q is even: a digit's parity is h's parity)
        high = np.arange(len(blocks))
        even = np.ones(len(blocks), dtype=bool)
        while high.any():
            even &= high % 2 == 0
            high //= q
        sums = np.stack(blocks, axis=-1)  # (B, 2, blocks)
        fine = np.array([math.fsum(row) for row in sums[:, 0]])
        coarse = np.array([math.fsum(row) for row in sums[:, 1, even]])
    fine = fine / terms
    coarse = coarse / (q // 2) ** (n - 2)
    return top * (4.0 * fine - coarse) / 3.0, top * np.abs(fine - coarse)


def steinhaus_expectation(c: Coefficients, method: str = "quadrature",
                          q: int = 256, schedule: Optional[Sequence[int]] = None,
                          budget: int = DEFAULT_EVAL_BUDGET) -> AverageResult:
    """Torus expectation of |sum a_n e^(i t_n)|.

    quadrature: the last angle is pinned, the first is integrated in
    closed form (AGM) and the N - 2 angles between take the product
    trapezoid rule with q nodes each (q an even integer >= 4), q^(N-2)
    terms, which is what ``budget`` counts.  The reported value is the
    Richardson extrapolation of the q and q/2 levels, which restores fast
    convergence on the kinked integrand, and the error bound is the
    two-level difference |T(q) - T(q/2)|.  For N <= 2 no angle is left to
    the rule: the value is exact and the bound 0.

    e_m_limit: exact T_M averages along an increasing ``schedule`` of at
    least two integers M >= 2; the value is taken at the largest M with
    error bound |E_last - E_prev|.
    """
    a = _values(c)
    if method == "quadrature":
        value, error = _quadrature(a[None], q, budget)
        return AverageResult(value=float(value[0]), kind="steinhaus", method="quadrature",
                             error_bound=float(error[0]))
    if method == "e_m_limit":
        if schedule is None or len(schedule) < 2:
            raise ValueError("e_m_limit needs an increasing schedule of >= 2 values of M")
        ms = [_as_integer(m, f"schedule[{i}]", 2) for i, m in enumerate(schedule)]
        if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
            raise ValueError(f"schedule must be strictly increasing, got {ms}")
        values = [e_m_average(a, m, budget=budget).value for m in ms]
        return AverageResult(value=values[-1], kind="steinhaus", method="e_m-limit",
                             error_bound=abs(values[-1] - values[-2]), m=ms[-1])
    raise ValueError(f"unknown method {method!r}; use 'quadrature' or 'e_m_limit'")


def ceiling(model: str, r, m: Optional[int] = None):
    """(value, provenance) of the ceiling on ||a||_r / average over all vectors a.

    model "rademacher": 2^(1/r), sharp (attained by (1, 1)); "e_m": the
    same at M = 2, else the certified (4/pi)^(1/r) / R_M, whose sharpness
    is open; "steinhaus": 2/sqrt(pi) at r = 2 and 1 at r = oo, both sharp,
    and the certified (4/pi)^(1/r) in between.  r must lie in [2, oo].
    """
    r = _as_exponent(r)
    if not r.is_inf and r.value < 2.0:
        raise ValueError(f"Khinchin ceilings require r >= 2, got {r}")
    inv_r = r.reciprocal
    if model == "rademacher":
        return 2.0 ** inv_r, "sharp Rademacher ceiling 2^(1/r)"
    if model == "e_m" and _as_integer(m, "M", 2) == 2:
        return 2.0 ** inv_r, "sharp ceiling 2^(1/r) (M = 2 is the Rademacher case)"
    if model == "e_m":
        return ((4.0 / math.pi) ** inv_r / r_m(m),
                "certified ceiling (4/pi)^(1/r) / R_M; sharpness open for M >= 3")
    if model != "steinhaus":
        raise ValueError(f"unknown model {model!r}")
    if r.value == 2.0:
        return TWO_OVER_SQRT_PI, "sharp Steinhaus ceiling 2/sqrt(pi) at r = 2"
    if r.is_inf:
        return 1.0, "sharp Steinhaus ceiling 1 at r = oo"
    return ((4.0 / math.pi) ** inv_r,
            "exploratory: certified ceiling (4/pi)^(1/r); sharp value open on (2, oo)")


def blei_bound_check(c: Coefficients, m: int, r,
                     budget: int = DEFAULT_EVAL_BUDGET) -> BleiBoundReport:
    """Probe the l_r-vs-T_M-average ratio against its certified ``ceiling``.

    The ceiling is sharp at M = 2 (the Rademacher case); for M >= 3
    sharpness is open and the gap to the best known lower bound is the
    interesting datum.
    """
    r, m = _as_exponent(r), _as_integer(m, "M", 2)
    bound, _ = ceiling("e_m", r, m)
    a = _values(c)
    ratio = _ratio(a, r, e_m_average(a, m, budget=budget).value)
    return BleiBoundReport(m=m, r=r, ratio=ratio, ceiling=bound,
                           witness=tuple(complex(z) for z in a),
                           violation=ratio > bound + CEILING_SLACK)

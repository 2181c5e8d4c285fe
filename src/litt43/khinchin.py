"""Khinchin-type averages of scalar coefficient vectors.

Three averages of |sum_n a_n s_n| are computed for a coefficient vector
(a_n), differing in where the multipliers s_n live:

* Rademacher: s_n independent uniform on {-1, +1} (the classical dyadic
  model sign(sin(2^n pi t)) on [0, 1]).  Computed exactly by enumerating
  sign patterns.
* roots of unity: s_n uniform on T_M = {exp(2*pi*i*j/M)}; the average is
  the exact mean over Omega_M^N.  M = 2 reproduces the Rademacher average
  through the identical enumeration.
* Steinhaus: s_n uniform on the whole unit circle, i.e. the N-fold torus
  integral of |sum a_n e^(i t_n)|.  Evaluated either by the product
  trapezoid rule (which on this periodic integrand coincides with the
  root-of-unity mean at M = Q nodes) or as a root-of-unity limit along an
  increasing schedule of M.

Every enumeration pins one multiplier (rotation invariance makes this
exact), runs the pattern walk of ``litt43.opnorm`` and accumulates its
block sums through ``math.fsum``, so equal input multisets produce
bit-equal averages.

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
from .exponents import CEILING_SLACK, TWO_OVER_SQRT_PI, Exponent, _as_exponent
from .forms import _lp, _unit_scaled
from .opnorm import DEFAULT_EVAL_BUDGET, _walk, r_m

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

RADEMACHER_CAP = 30
QUADRATURE_DIM_CAP = 8

_TABLE_CAP = 1 << 20  # patterns per tabulated block of the walk


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
    """lr_norm of each row of the stack A (B, N), as (B,)."""
    top, scaled = _unit_scaled(A, -1)
    return top[..., 0] * _lp(scaled, r.value)


def lr_norm(c: Coefficients, r) -> float:
    """(sum |a_n|^r)^(1/r), supremum for r = oo."""
    return float(_lr_norms(_values(c)[None], _as_exponent(r))[0])


def _block_sum(mods: np.ndarray) -> np.ndarray:
    return mods.sum(axis=(-2, -1))


def _mean_abs(A: np.ndarray, m: int, budget: Optional[int] = None) -> np.ndarray:
    """Exact mean of |sum_n a_n w_n| over w in Omega_M^N, for each row of A (B, N).

    The last multiplier is pinned to 1 (exact by rotation invariance), so
    the walk sums M^(N-1) terms per row, which is what ``budget`` counts.
    """
    n = A.shape[-1]
    terms = m ** (n - 1)
    if budget is not None and terms > budget:
        raise CapacityError(
            f"Omega_{m}^{n} averaging needs {terms} terms (after fixing the "
            f"global phase) but the budget is {budget}"
        )
    sums = _walk(A[..., -1:], A[..., None, :-1], m, _TABLE_CAP, _block_sum)
    # fsum of a single block sum is that sum, bit for bit
    totals = sums[0] if len(sums) == 1 else np.array([math.fsum(row) for row in zip(*sums)])
    return totals / terms


def _rademacher_means(A: np.ndarray, cap: int = RADEMACHER_CAP) -> np.ndarray:
    """Exact Rademacher average of each row of the stack A (B, N)."""
    if A.shape[-1] > cap:
        raise CapacityError(
            f"Rademacher enumeration needs 2^{A.shape[-1] - 1} patterns but the cap is "
            f"N = {cap}; raise `cap` explicitly to proceed"
        )
    return _mean_abs(A, 2)


def rademacher_average(c: Coefficients, cap: int = RADEMACHER_CAP) -> AverageResult:
    """Exact average of |sum eta_n a_n| over all 2^N sign patterns."""
    return AverageResult(value=float(_rademacher_means(_values(c)[None], cap)[0]),
                         kind="rademacher", method="enumeration", error_bound=0.0)


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
    """Exact root-of-unity average; M = 2 is the Rademacher enumeration."""
    a = _values(c)
    if m < 2:
        raise ValueError(f"root-of-unity average needs M >= 2, got {m}")
    value = float(_mean_abs(a[None], m, budget)[0])
    return AverageResult(value=value, kind="e_m", method="enumeration",
                         error_bound=0.0, m=int(m))


def _quadrature(A: np.ndarray, q: int, budget: int = DEFAULT_EVAL_BUDGET):
    """(value, error_bound) of the Steinhaus quadrature for each row of A (B, N)."""
    if A.shape[-1] > QUADRATURE_DIM_CAP:
        raise CapacityError(
            f"quadrature supports N <= {QUADRATURE_DIM_CAP}, got N = {A.shape[-1]}"
        )
    if q < 4 or q % 2:
        raise ValueError(f"quadrature needs an even node count >= 4, got {q}")
    coarse = _mean_abs(A, q // 2, budget)
    fine = _mean_abs(A, q, budget)
    return (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse)


def steinhaus_expectation(c: Coefficients, method: str = "quadrature",
                          q: int = 256, schedule: Optional[Sequence[int]] = None,
                          budget: int = DEFAULT_EVAL_BUDGET) -> AverageResult:
    """Torus expectation of |sum a_n e^(i t_n)|.

    quadrature: product trapezoid rule with q nodes per angle (q even);
    the reported value is the Richardson extrapolation of the q and q/2
    levels, which restores fast convergence on the kinked integrand, and
    the error bound is the two-level difference |T(q) - T(q/2)|.

    e_m_limit: exact T_M averages along an increasing ``schedule`` of at
    least two M values; the value is taken at the largest M with error
    bound |E_last - E_prev|.
    """
    a = _values(c)
    if method == "quadrature":
        value, error = _quadrature(a[None], q, budget)
        return AverageResult(value=float(value[0]), kind="steinhaus", method="quadrature",
                             error_bound=float(error[0]))
    if method == "e_m_limit":
        if schedule is None or len(schedule) < 2:
            raise ValueError("e_m_limit needs an increasing schedule of >= 2 values of M")
        ms = [int(m) for m in schedule]
        if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])) or ms[0] < 2:
            raise ValueError(f"schedule must be strictly increasing with M >= 2, got {ms}")
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
    if model == "e_m" and m == 2:
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
    r = _as_exponent(r)
    bound, _ = ceiling("e_m", r, m)
    a = _values(c)
    ratio = _ratio(a, r, e_m_average(a, m, budget=budget).value)
    return BleiBoundReport(m=int(m), r=r, ratio=ratio, ceiling=bound,
                           witness=tuple(complex(z) for z in a),
                           violation=ratio > bound + CEILING_SLACK)

"""Exponent arithmetic on [1, oo] and the sharp-constant formulas.

Conventions used throughout the package:

* an exponent is a real number p >= 1 or the symbol oo (``math.inf``);
* 1/oo = 0, and the conjugate index p* satisfies 1/p + 1/p* = 1, so
  conjugate(1) = oo and conjugate(oo) = 1;
* the *deficiency* of a pair (a, b) is 1/a + 1/b - 1.  The pair is
  admissible for the anisotropic mixed-norm inequality exactly when
  1/a + 1/b <= 3/2, i.e. deficiency <= 1/2.

The admissible set splits into four regions (plus R0 for inadmissible
pairs).  In reciprocal coordinates (x, y) = (1/a, 1/b):

    RII  : x + y <= 1            (b >= a*; the constant is exactly 1)
    RIII : x <= 1/2 < x + y      (a >= 2, b <= a*)
    RIV  : y <= 1/2 < x, x+y > 1 (a <= 2, 2 <= b <= a*)
    RI   : x > 1/2, y > 1/2      (a, b <= 2)

Shared boundaries are tie-broken with priority RII > RIII > RIV > RI;
the constant formula 2^max(0, deficiency) is continuous across every
boundary, so the tie-break only affects labels, never values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import InadmissibleExponentsError, InputParseError

__all__ = [
    "Exponent",
    "INFINITY",
    "ExponentPair",
    "RegionLabel",
    "ConstantReport",
    "conjugate",
    "admissible",
    "classify_region",
    "real_constant",
    "complex_constant_bounds",
    "TWO_OVER_SQRT_PI",
]

#: Exact value of C^C at (1,2) and (2,1): 2/sqrt(pi).
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

#: Excess of a ratio over its proved ceiling that falsifies it, not rounding.
CEILING_SLACK = 1e-9


@dataclass(frozen=True)
class Exponent:
    """An exponent in [1, oo], with oo stored as ``math.inf``."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v < 1.0:
            raise InadmissibleExponentsError(
                f"exponent must satisfy p >= 1 or p = inf, got {self.value!r} "
                f"(admissibility needs a, b >= 1 and 1/a + 1/b <= 3/2)")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def reciprocal(self) -> float:
        """1/p with the convention 1/oo = 0 (exact in IEEE arithmetic)."""
        return 0.0 if self.is_inf else 1.0 / self.value

    @classmethod
    def parse(cls, text: str) -> "Exponent":
        """Parse ``"inf"``, an integer/decimal literal, or a fraction ``"p/q"``.

        Raises InputParseError for text that is no number (``"1/0"``
        included) and InadmissibleExponentsError for p < 1.
        """
        s = text.strip().lower()
        if s == "oo":
            s = "inf"
        try:
            value = float(Fraction(s)) if "/" in s else float(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputParseError(f"cannot parse exponent {text!r}") from exc
        return cls(value)

    def __str__(self) -> str:
        return "inf" if self.is_inf else repr(self.value)


INFINITY = Exponent(math.inf)


def _as_exponent(p) -> Exponent:
    if isinstance(p, Exponent):
        return p
    if isinstance(p, str):
        return Exponent.parse(p)
    return Exponent(float(p))


def _as_integer(value, name: str, low: int, even: bool = False) -> int:
    """int(value) if an integer >= low (and even, if asked), else a ValueError naming ``name``.

    Python and numpy integers pass; bools, floats (4.0 too), strings and None do not.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (even and value % 2)):
        kind = "an even integer" if even else "an integer"
        raise ValueError(f"{name} must be {kind} >= {low}, got {value!r}")
    return int(value)


def _reciprocal_grid(points: int):
    """``points`` evenly spaced reciprocals 1/p on [0, 1], and the exponents p (1/0 is oo)."""
    invs = [i / (points - 1) for i in range(points)]
    return invs, [math.inf if inv == 0.0 else 1.0 / inv for inv in invs]


def conjugate(p) -> Exponent:
    """The conjugate index p* with 1/p + 1/p* = 1.

    conjugate(1) = oo and conjugate(oo) = 1 by the 1/oo = 0 convention.
    Involutive up to floating rounding (exactly at 1, 2 and oo).
    """
    p = _as_exponent(p)
    if p.is_inf:
        return Exponent(1.0)
    if p.value == 1.0:
        return INFINITY
    return Exponent(1.0 / (1.0 - p.reciprocal))


@dataclass(frozen=True)
class ExponentPair:
    """A pair (a, b): inner exponent a over columns, outer exponent b over rows."""

    a: Exponent
    b: Exponent

    @classmethod
    def of(cls, a, b) -> "ExponentPair":
        return cls(_as_exponent(a), _as_exponent(b))

    @property
    def deficiency(self) -> float:
        """1/a + 1/b - 1, in [-1, 1]."""
        return self.a.reciprocal + self.b.reciprocal - 1.0

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


class RegionLabel(str, Enum):
    R0 = "R0"
    RI = "RI"
    RII = "RII"
    RIII = "RIII"
    RIV = "RIV"

    def __str__(self) -> str:
        return self.value


def admissible(pair: ExponentPair) -> bool:
    """Whether 1/a + 1/b <= 3/2 (closed inequality, exact float comparison)."""
    return pair.a.reciprocal + pair.b.reciprocal <= 1.5


def classify_region(pair: ExponentPair) -> RegionLabel:
    """Region of (a, b), tie-broken RII > RIII > RIV > RI on shared boundaries."""
    if not admissible(pair):
        return RegionLabel.R0
    x, y = pair.a.reciprocal, pair.b.reciprocal
    if x + y <= 1.0:
        return RegionLabel.RII
    if x <= 0.5:
        return RegionLabel.RIII
    if y <= 0.5:
        return RegionLabel.RIV
    return RegionLabel.RI


@dataclass(frozen=True)
class ConstantReport:
    """Best-constant value or interval for one scalar field.

    ``exact`` is set only when the sharp value is known; then
    lower == exact == upper.  Otherwise [lower, upper] is the best
    certified interval and the sharp value inside it is open.
    """

    field: str  # "real" | "complex"
    exact: Optional[float]
    lower: float
    upper: float
    provenance: str

    def __post_init__(self):
        if not (1.0 <= self.lower <= self.upper):
            raise ValueError(f"invalid constant interval [{self.lower}, {self.upper}]")
        if self.exact is not None and not (self.lower == self.exact == self.upper):
            raise ValueError("exact value must coincide with both interval endpoints")


def _require_admissible(pair: ExponentPair) -> None:
    if not admissible(pair):
        raise InadmissibleExponentsError(
            f"(a, b) = {pair} violates 1/a + 1/b <= 3/2 "
            f"(1/a + 1/b = {pair.a.reciprocal + pair.b.reciprocal!r})"
        )


def real_constant(pair: ExponentPair) -> ConstantReport:
    """Sharp real constant 2^max(0, 1/a + 1/b - 1); exactly 1 on RII."""
    _require_admissible(pair)
    d = max(0.0, pair.deficiency)
    value = 2.0 ** d
    return ConstantReport(
        field="real",
        exact=value,
        lower=value,
        upper=value,
        provenance=f"sharp: 2^max(0, 1/a + 1/b - 1) with deficiency {pair.deficiency!r}",
    )


def complex_constant_bounds(pair: ExponentPair) -> ConstantReport:
    """Complex constant: exact where known, else the interval [1, (4/pi)^deficiency].

    Exact values: 1 whenever 1/a + 1/b <= 1 (all of RII), and 2/sqrt(pi)
    at (1, 2) and (2, 1).  Elsewhere the sharp value is open and only the
    interval is certified.
    """
    _require_admissible(pair)
    d = pair.deficiency
    if d <= 0.0:
        return ConstantReport(
            field="complex", exact=1.0, lower=1.0, upper=1.0,
            provenance="sharp: constant 1 for 1/a + 1/b <= 1",
        )
    av, bv = pair.a.value, pair.b.value
    if (av, bv) in ((1.0, 2.0), (2.0, 1.0)):
        c = TWO_OVER_SQRT_PI
        return ConstantReport(
            field="complex", exact=c, lower=c, upper=c,
            provenance="sharp: 2/sqrt(pi) at (1,2) and (2,1)",
        )
    upper = (4.0 / math.pi) ** d
    return ConstantReport(
        field="complex", exact=None, lower=1.0, upper=upper,
        provenance="open: certified interval [1, (4/pi)^(1/a + 1/b - 1)]",
    )

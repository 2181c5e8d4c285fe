"""Exact and certified operator norms for finite bilinear forms.

The sup norm ||A|| maximizes |A(x, y)| over arguments with entries of
modulus at most 1.  The x argument is eliminated exactly: for fixed y the
supremum over the unit cube (real) or polydisc (complex) in x equals
sum_k |sum_j A_kj y_j|, taking x_k to be the sign (or conjugate phase) of
the k-th row sum.  What remains is

* real case: a convex objective in y, so the maximum is attained at a
  vertex of the cube.  ``real_sup_norm`` enumerates the 2^(min(K,N)-1)
  sign vectors of the smaller side (||A|| = ||A^T||; y and -y tie, so the
  first sign is pinned to +1) and is exact.
* complex case: the continuum of phases is discretized to the M-th roots
  of unity.  ``complex_norm_discrete`` is the exact maximum over that
  grid, and the factor R_M = sqrt(1/2 + cos(2*pi/M)/2) certifies the
  two-sided bound  ||A||_M <= ||A|| <= ||A||_M / R_M.

Both enumerations, and the exact averages in ``litt43.khinchin``, run on
one walk over Omega_M^(N-1) (``_walk``): the leading free coordinates
are tabulated as one block of partial sums (one vectorized pass evaluates
a whole block), and the remaining high digits run in mixed-radix order,
each shifting the whole block by its offset.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .exponents import _as_integer
from .forms import BilinearForm

__all__ = [
    "TorusNormBounds",
    "real_sup_norm",
    "complex_norm_discrete",
    "r_m",
    "complex_norm_bounds",
    "REAL_ENUM_CAP",
    "DEFAULT_EVAL_BUDGET",
]

REAL_ENUM_CAP = 24
DEFAULT_EVAL_BUDGET = 10**8

# Tabulated block size: 2^14 sign patterns / <= 2^17 root patterns.
_SIGN_TABLE_CAP = 1 << 14
_ROOT_TABLE_CAP = 1 << 17

# Table elements per walk over a batch, the one bound on a batched kernel
# call: larger stacks fall out of cache (full verify blei_khinchine: 0.55 s
# at 2^16-2^20, 0.67 s with no bound), smaller ones fault more (fast suite
# at 2^16: 53k minor faults against 3.4k).
_STACK_ELEMENTS = 1 << 18

# Coordinate phase ascent: sweep cap, relative gain that ends the sweeps,
# and the final bracket width in radians.
_ASCENT_SWEEPS = 200
_ASCENT_REL_TOL = 1e-12
_ASCENT_ANGLE_TOL = 1e-12

# Zoom rounds of the ascent as (spacing d, exp(i d arange(64))): round 0 is
# the circle grid; each later round spans the two spacings around the
# previous argmax, so d shrinks by 2/63, until that bracket 2d <= tolerance.
_ZOOM = [2.0 * math.pi / 64.0]
while 2.0 * _ZOOM[-1] > _ASCENT_ANGLE_TOL:
    _ZOOM.append(_ZOOM[-1] * 2.0 / 63.0)
_ZOOM = [(d, np.exp(1j * d * np.arange(64))) for d in _ZOOM]


@dataclass(frozen=True)
class TorusNormBounds:
    """Certified interval [lower, upper] for a complex sup norm.

    discrete_norm is the exact grid maximum ||A||_M; lower improves on it
    only through feasible points (phase ascent), so
    discrete_norm <= lower <= ||A|| <= upper = discrete_norm / R_M.
    """

    lower: float
    upper: float
    m: int
    r_m: float
    discrete_norm: float

    def __post_init__(self):
        slack = 1e-12 * max(1.0, self.discrete_norm)
        if not (self.discrete_norm - slack <= self.lower <= self.upper + slack):
            raise ValueError(
                f"inconsistent bounds: discrete={self.discrete_norm!r} "
                f"lower={self.lower!r} upper={self.upper!r}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


@functools.lru_cache(maxsize=32)
def _roots(m: int) -> np.ndarray:
    """The M-th roots of unity exp(2*pi*i*j/M); exactly the real +-1 for M = 2.

    Read-only and cached: search windows run small walks in a loop, where the
    exponentials are a visible share of each call.
    """
    points = np.array([1.0, -1.0]) if m == 2 else np.exp(2j * np.pi * np.arange(m) / m)
    points.setflags(write=False)
    return points


def _partial_sums(first: np.ndarray, cols: np.ndarray, points: np.ndarray) -> np.ndarray:
    """first + sum_j cols[..., j] * points[d_j] over every digit tuple, as (..., K, M^L).

    Leading axes of ``first`` (..., K) and ``cols`` (..., K, L) are batch
    axes; every operation is elementwise along them.  Column t of the
    result has digits d_j of t in base M, column 0 of ``cols`` least
    significant: each new column's digit is the most significant one, so
    every step adds M contiguous copies of the table.  The table is always
    C-contiguous, even with no columns: numpy's reductions over it
    associate by layout, and a strided stack would sum in another order.
    """
    table = np.ascontiguousarray(first)[..., None]
    contribs = cols[..., None] * points  # (..., K, L, M)
    for j in range(cols.shape[-1]):
        table = (contribs[..., j, :, None] + table[..., None, :]).reshape(first.shape + (-1,))
    return table


def _walk(first: np.ndarray, cols: np.ndarray, m: int, table_cap: int, reduce,
          *carry, unit: int = 1) -> list:
    """Apply ``reduce`` to every block of the moduli |first + cols @ w|, w in Omega_M^L.

    ``first`` (..., K) is the pinned column; the L columns of ``cols``
    (..., K, L) are multiplied by M-th roots of unity (exactly +-1 for
    M = 2); leading axes are a batch of independent walks.  The first
    columns are tabulated as one (..., K, T) block of at most
    ``table_cap`` patterns per batch member (at least one column); the
    remaining high digits run in mixed-radix order, each adding its offset
    to the whole block.  The split depends on (M, L, table_cap) alone, never
    on the batch size, so every member's sums associate as in a walk of its
    own.  ``unit`` prices the work of ``reduce`` per table element, in
    table elements.  A leading batch axis over _STACK_ELEMENTS of those
    units is walked in parts of max(1, _STACK_ELEMENTS // (K * T * unit))
    members, and the reductions are joined along it.  Each ``carry`` array
    has that batch axis first and travels with its members:
    ``reduce(mods, *carry)`` gets the slices of the members in ``mods``.
    Block h, column t holds pattern g = h * T + t, digits
    ``np.unravel_index(g, (M,) * L, order="F")`` (column 0 least
    significant).  The high-digit blocks share one buffer, so ``reduce``
    must not keep its argument.  Returns the list of reductions, in block
    order.
    """
    points = _roots(m)
    low = cols.shape[-1]
    while low > 1 and m ** low > table_cap:
        low -= 1
    if first.ndim > 1 and len(first) > 1 and first.size * m ** low * unit > _STACK_ELEMENTS:
        # only array reductions are joined: the (value, index) pairs of
        # complex_norm_bounds come from a batch of one, never split
        step = max(1, _STACK_ELEMENTS // (first.shape[-1] * m ** low * unit))
        parts = []  # a loop, not a comprehension: no closure cells for the whole walk
        for i in range(0, len(first), step):
            part = slice(i, i + step)
            parts.append(_walk(first[part], cols[part], m, table_cap, reduce,
                               *map(operator.itemgetter(part), carry), unit=unit))
        return [np.concatenate(blocks) for blocks in zip(*parts)]
    table = _partial_sums(first, cols[..., :low], points)
    if low == cols.shape[-1]:
        return [reduce(np.abs(table), *carry)]
    offsets = _partial_sums(np.zeros(first.shape), cols[..., low:], points)
    # one buffer for every block, so no block faults fresh pages in
    block = np.empty_like(table)
    mods = block if block.dtype == np.float64 else np.empty(block.shape)
    return [reduce(np.abs(np.add(table, offsets[..., h, None], out=block), out=mods), *carry)
            for h in range(offsets.shape[-1])]


def _block_max(mods: np.ndarray) -> np.ndarray:
    return mods.sum(axis=-2).max(axis=-1)


def _block_argmax(mods: np.ndarray):
    sums = mods.sum(axis=-2)
    t = np.argmax(sums, axis=-1)
    return np.take_along_axis(sums, t[..., None], axis=-1)[..., 0], t


def _real_norms(E: np.ndarray, cap: int = REAL_ENUM_CAP) -> np.ndarray:
    """Exact ||A|| for each real K x N matrix of the stack E (B, K, N)."""
    e = E if E.shape[-1] <= E.shape[-2] else np.swapaxes(E, -1, -2)
    n = e.shape[-1]
    if n > cap:
        raise CapacityError(
            f"sign enumeration needs 2^{n - 1} patterns but the cap is "
            f"min(K, N) = {cap} (2^{cap - 1}); raise `cap` explicitly to proceed"
        )
    # y[0] pinned to +1 (y and -y give equal values)
    return functools.reduce(np.maximum, _walk(e[..., 0], e[..., 1:], 2, _SIGN_TABLE_CAP,
                                              _block_max))


def real_sup_norm(A: BilinearForm, cap: int = REAL_ENUM_CAP) -> float:
    """Exact ||A|| for a real form, maximized over the sign vectors of one side.

    ||A|| = ||A^T||, so the walk runs over the smaller side (the columns
    when K = N).  Refuses (rather than approximates) when min(K, N) exceeds
    ``cap``; the stochastic lower bounds in ``litt43.search`` cover larger shapes.
    """
    if A.is_complex:
        raise ValueError("real_sup_norm requires a real-tagged form")
    return float(_real_norms(A.entries[None], cap)[0])


def _grid_walk(E: np.ndarray, m: int, budget: int, reduce) -> list:
    """The walk over T_M^N with the first coordinate pinned to 1, for a stack E (B, K, N)."""
    m = _as_integer(m, "M", 3)
    n = E.shape[-1]
    evals = m ** (n - 1)
    if evals > budget:
        raise CapacityError(
            f"T_{m}^{n} enumeration needs {evals} objective evaluations "
            f"(after fixing the global phase) but the budget is {budget}"
        )
    return _walk(E[..., 0], E[..., 1:], m, _ROOT_TABLE_CAP, reduce)


def _grid_norms(E: np.ndarray, m: int, budget: int = DEFAULT_EVAL_BUDGET) -> np.ndarray:
    """||A||_M for each K x N matrix of the stack E (B, K, N)."""
    return functools.reduce(np.maximum, _grid_walk(E, m, budget, _block_max))


def complex_norm_discrete(A: BilinearForm, m: int,
                          budget: int = DEFAULT_EVAL_BUDGET) -> float:
    """Exact maximum of sum_k |sum_j A_kj y_j| over y in T_M^N.

    The first coordinate is pinned to 1 (global phase invariance), so the
    enumeration costs M^(N-1) objective evaluations, which is what the
    budget counts.  Real-tagged forms are accepted and treated as complex.
    """
    return float(_grid_norms(A.entries[None], m, budget)[0])


def r_m(m) -> float:
    """Sandwich factor sqrt(1/2 + cos(2*pi/M)/2) for an integer M >= 3, increasing in M, -> 1.

    M = math.inf is accepted symbolically and gives exactly 1.
    """
    if m == math.inf:
        return 1.0
    return math.sqrt(0.5 + 0.5 * math.cos(2.0 * math.pi / _as_integer(m, "M", 3)))


def _coordinate_phase_ascent(entries: np.ndarray, y: np.ndarray) -> float:
    """Sweep coordinates, moving each phase to a 1-D maximizer; monotone.

    The phase of coordinate j maximizes f(t) = sum_k |c_k + a_kj e^(it)|.
    Each zoom round evaluates f at 64 equally spaced angles, all rows at
    once: round 0 on the circle grid, each later round over the two grid
    spacings around the previous round's first argmax (``_ZOOM``), until
    the bracket is at most ``_ASCENT_ANGLE_TOL`` wide.  A form with a
    single row takes the closed form instead.  The zoom only chooses the
    angle: the candidate value is f evaluated afresh at the feasible
    point e^(it), and a move is accepted only on strict improvement, so
    the returned value is a valid lower bound on ||A||.
    """
    k, n = entries.shape
    y = y.astype(np.complex128).copy()
    s = entries @ y
    value = float(np.abs(s).sum())
    for _ in range(_ASCENT_SWEEPS):
        previous = value
        for j in range(n):
            aj = entries[:, j]
            c = s - aj * y[j]
            if k == 1:
                # single row: |c + a e^(i t)| peaks where the two terms align
                if abs(aj[0]) == 0.0:
                    continue
                theta = math.atan2((c[0] * np.conj(aj[0])).imag,
                                   (c[0] * np.conj(aj[0])).real)
                theta = theta % (2.0 * math.pi)
            else:
                lo, c1 = 0.0, c[:, None]
                for d, table in _ZOOM:
                    b = (aj * cmath.exp(1j * lo))[:, None]
                    at = int(np.add.reduce(np.abs(c1 + b * table), axis=0).argmax())
                    theta = lo + d * at
                    lo = theta - d
            yj = np.exp(1j * theta)
            candidate = float(np.abs(c + aj * yj).sum())
            if candidate > value:
                y[j] = yj
                s = c + aj * yj
                value = candidate
        if value - previous <= _ASCENT_REL_TOL * max(value, 1.0):
            break
    return value


def complex_norm_bounds(A: BilinearForm, m: int, refine: bool = False,
                        budget: int = DEFAULT_EVAL_BUDGET) -> TorusNormBounds:
    """Certified interval for ||A||: [||A||_M (optionally refined), ||A||_M / R_M].

    Refinement runs coordinate-wise phase ascent from the grid maximizer;
    it can only raise the lower endpoint through feasible evaluations, so
    the interval stays valid.  The upper endpoint always uses the
    unrefined grid norm, whose R_M guarantee is what certification needs.
    """
    m = _as_integer(m, "M", 3)
    factor = r_m(m)
    blocks = [(float(v[0]), int(t[0]))
              for v, t in _grid_walk(A.entries[None], m, budget, _block_argmax)]
    h = max(range(len(blocks)), key=lambda i: blocks[i][0])  # first maximal block
    discrete, t = blocks[h]
    lower = discrete
    if refine and discrete > 0.0:
        free = A.cols - 1
        digits = np.unravel_index(h * (m ** free // len(blocks)) + t, (m,) * free,
                                  order="F")
        y = np.concatenate(([1.0 + 0.0j], _roots(m)[list(digits)]))
        # C order: products with an F-ordered form sum in another order
        lower = max(lower, _coordinate_phase_ascent(
            np.ascontiguousarray(A.entries, dtype=np.complex128), y))
    upper = discrete / factor
    # feasible ascent cannot mathematically exceed ||A|| <= upper; guard
    # against rounding at the scale of the last digit only
    lower = min(lower, upper)
    return TorusNormBounds(lower=lower, upper=upper, m=m, r_m=factor,
                           discrete_norm=discrete)

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
  grid on the smaller side, M^(min(K,N)-1) patterns, and the factor
  R_M = sqrt(1/2 + cos(2*pi/M)/2) certifies the two-sided bound
  ||A||_M <= ||A|| <= ||A||_M / R_M on either side, as ||A|| = ||A^T||.

Both enumerations, and the exact averages in ``litt43.khinchin``, run on
one walk over Omega_M^L (``_walk``): the leading free coordinates
are tabulated as one block of partial sums (one vectorized pass evaluates
a whole block), and the remaining high digits run in mixed-radix order,
each shifting the whole block by its offset.  A large walk builds its
arrays in a growable arena of the calling thread (``_Arena``), and hands
its blocks out to the usable cores.
"""

from __future__ import annotations

import cmath
import functools
import math
import mmap
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
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

# Runners of one walk: the usable cores.  A walk hands its high-digit blocks
# to more than one runner only from _THREAD_ELEMENTS table elements per
# block, and only with _THREAD_WORK table elements x blocks x unit in all.
# Below the first the ufuncs are too short to leave the GIL to the other
# runner (Steinhaus N = 5, Q = 64, blocks of 4,096 nodes: 18.5 ms serial,
# 29-30 ms on two threads); below the second the hand-off does not pay for
# the slower ops that follow it on a shared 2-core host (certify's
# op_p50_ms read +32% with its complex 2x7 M = 8 walks, 2^19 units,
# threaded and +12% without), while Steinhaus N = 6, Q = 36 (10^7 units)
# went 72 -> 41 ms.  2-core Xeon VM, numpy 2.4.6.
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1)
_THREAD_ELEMENTS = 1 << 14
_THREAD_WORK = 1 << 22
# A walk of fewer table elements allocates its arrays per call: the
# arena's bookkeeping costs more than they do (4x24 real_sup_norm,
# 2-core Xeon: 18 us against 40 us through the arena), and glibc
# serves them from its free lists.
_POOLED_ELEMENTS = 1 << 12

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

    discrete_norm is the exact grid maximum ||A||_M over the smaller side;
    lower improves on it only through feasible points (phase ascent), so
    discrete_norm <= lower <= ||A|| <= upper = discrete_norm / R_M.
    """

    lower: float
    upper: float
    m: int
    r_m: float
    discrete_norm: float

    def __post_init__(self):
        slack = 1e-12 * self.discrete_norm  # relative: an absolute slack passes any small form
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


_FLOAT64 = np.dtype(np.float64)
# A private mapping: a forked child gets a copy on write, never the parent's pages.
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


class _Arena:
    """One growable buffer, carved into the arrays of the walk that runs in it.

    A walk that allocated its table-sized arrays afresh on each call took
    its pages back from the kernel as minor faults whenever glibc had
    trimmed the heap in between (112 faults per 12x12 ``real_sup_norm`` in
    a loop); a buffer that stays mapped faults once.  A scope saves ``top``
    and restores it, handing back every array carved since, so the buffer
    grows to the arrays of the largest walk, not to the largest array of
    each kind.  The buffer is an anonymous mapping, not a malloc block: an
    outgrown buffer is unmapped once its arrays are gone (as a malloc
    block, glibc kept it in its heap, and certify's peak_rss_mb read
    +9.5%), and every array starts on a 64-byte cache line (at malloc's
    16-byte alignment the table steps of a 12x12 norm ran 24% slower;
    2-core Xeon VM).
    """

    def __init__(self):
        self.buffer = np.empty(0, np.uint8)
        self.top = 0  # bytes carved by the open scopes
        self.runners = []  # the arenas of runners 1, 2, ... of this arena's walks

    def array(self, shape: tuple, dtype: np.dtype = _FLOAT64):
        """``out=`` for a ufunc: an uninitialized C-contiguous array carved from the buffer.

        A carve past the end maps a larger buffer; the arrays already carved
        keep the old one until they are gone.
        """
        start = self.top
        size = math.prod(shape)
        self.top = end = start + (size * dtype.itemsize + 63) // 64 * 64
        if end > len(self.buffer):  # pages past the top stay unmapped until used
            size = 1 << (end - 1).bit_length()
            self.buffer = np.frombuffer(mmap.mmap(-1, size, **_PRIVATE), np.uint8)
        return np.ndarray(shape, dtype, self.buffer, start)


class _ThreadArena(threading.local):
    """The arena of each calling thread, made on its first carving walk."""

    def __init__(self):
        self.arena = _Arena()


_THREAD_ARENA = _ThreadArena()


def _partial_sums(first: np.ndarray, cols: np.ndarray, points: np.ndarray,
                  arena) -> np.ndarray:
    """first + sum_j cols[..., j] * points[d_j] over every digit tuple, as (..., K, M^L).

    Leading axes of ``first`` (..., K) and ``cols`` (..., K, L) are batch
    axes; every operation is elementwise along them.  Column t of the
    result has digits d_j of t in base M, column 0 of ``cols`` least
    significant: each new column's digit is the most significant one, so
    every step adds M contiguous copies of the table.  The table is always
    C-contiguous, even with no columns: numpy's reductions over it
    associate by layout, and a strided stack would sum in another order.
    With an arena the steps alternate between the result and a spare,
    handed back at once: nothing else is carved before the return, and only
    its first 1/M is ever written, so the pages after that cost nothing
    until a later carve reuses them.
    """
    table = np.ascontiguousarray(first)[..., None]
    contribs = cols[..., None] * points  # (..., K, L, M)
    steps = cols.shape[-1]
    size = table.size * len(points) ** steps
    dtype = np.promote_types(contribs.dtype, table.dtype)
    result = spare = None
    if arena is not None:
        result = arena.array((size,), dtype)
        mark = arena.top
        spare = arena.array((size,), dtype)
        arena.top = mark
    for j in range(steps):
        out = None
        if result is not None:  # the last step writes the result
            out = np.ndarray(first.shape + (len(points), table.shape[-1]), dtype,
                             result if (steps - j) % 2 else spare)
        table = np.add(contribs[..., j, :, None], table[..., None, :],
                       out=out).reshape(first.shape + (-1,))
    return table


def _run_blocks(table, offsets, claim, reduce, carry, results, arena):
    """Set results[h] to ``reduce`` of |table + offsets[..., h]| for each block h claimed.

    ``claim()`` returns the next unclaimed block, or None when there is
    none; ``results`` has one slot per block.  The block, and a complex
    block's moduli (a real one holds its own), are made once; each
    reduction's scratch is handed back to ``arena`` before the next block.
    """
    mark = arena and arena.top
    block = np.empty_like(table) if arena is None else arena.array(table.shape, table.dtype)
    mods = block if block.dtype == np.float64 else arena and arena.array(table.shape)
    scratch = arena and arena.top
    for h in iter(claim, None):
        if arena is not None:
            arena.top = scratch
        results[h] = reduce(np.abs(np.add(table, offsets[..., h, None], out=block), out=mods),
                            arena, *carry)
    if arena is not None:
        arena.top = mark


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
    ``reduce(mods, arena, *carry)`` gets the slices of the members in
    ``mods``.
    Block h, column t holds pattern g = h * T + t, digits
    ``np.unravel_index(g, (M,) * L, order="F")`` (column 0 least
    significant).  Returns the list of reductions, in block order.

    Runners: a walk of at least _THREAD_ELEMENTS table elements per block
    and _THREAD_WORK units in all (table elements x blocks x ``unit``)
    runs on min(_THREADS, blocks, _STACK_ELEMENTS // table words) runners
    (a complex element is two words), the calling thread and threads the
    walk starts and joins, so the extra runners' blocks stay within the
    stack bound.  Each runner claims the next unclaimed block when it is
    done with one, so a runner whose core is busy with other work leaves
    its share to the others instead of holding up the walk.  Every block
    is summed as in a serial walk and its reduction lands in its own slot,
    so the bits do not depend on the runners.  ``reduce`` runs in the
    runner's thread; its exception reaches the caller once every runner
    is joined.

    Arena: a walk (or part) of _POOLED_ELEMENTS table elements or more,
    B x K x T, looks up the calling thread's ``_Arena`` once and passes it
    down to every function that builds an array, ``reduce`` included; each
    carves its ``out=`` arrays from it, runner k from the arena's
    ``runners[k]``, so each buffer is reused across blocks and calls.
    ``reduce`` must therefore not keep its argument, nor return a view of
    the arena.  A smaller walk passes None, and every array is allocated.
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
    if first.size * m ** low < _POOLED_ELEMENTS:
        return _walk_table(first, cols, points, low, reduce, carry, unit, None)
    arena = _THREAD_ARENA.arena
    mark = arena.top
    try:
        return _walk_table(first, cols, points, low, reduce, carry, unit, arena)
    finally:
        arena.top = mark


def _walk_table(first, cols, points, low: int, reduce, carry, unit: int, arena) -> list:
    """``_walk`` of one batch, tabulating the first ``low`` columns."""
    if low == cols.shape[-1]:
        table = _partial_sums(first, cols, points, arena)
        return [reduce(np.abs(table, out=arena and arena.array(table.shape)), arena, *carry)]
    offsets = _partial_sums(np.zeros(first.shape), cols[..., low:], points, arena)
    table = _partial_sums(first, cols[..., :low], points, arena)
    blocks = offsets.shape[-1]
    runners = 1
    if table.size >= _THREAD_ELEMENTS and table.size * blocks * unit >= _THREAD_WORK:
        runners = max(1, min(_THREADS, blocks, _STACK_ELEMENTS * 8 // table.nbytes))
    blocks_left = iter(range(blocks))
    results = [None] * blocks
    if runners == 1:
        _run_blocks(table, offsets, functools.partial(next, blocks_left, None), reduce, carry,
                    results, arena)
        return results
    lock = threading.Lock()

    def claim():
        with lock:
            return next(blocks_left, None)

    helpers = [None] * (runners - 1)
    if arena is not None:
        arena.runners += [_Arena() for _ in range(runners - 1 - len(arena.runners))]
        helpers = arena.runners[:runners - 1]
        for helper in helpers:
            helper.top = 0  # a runner whose reduction raised left its scope open
    # leaving the block joins the runners, which read this thread's table
    with ThreadPoolExecutor(runners - 1, thread_name_prefix="litt43-walk") as pool:
        futures = [pool.submit(_run_blocks, table, offsets, claim, reduce, carry, results,
                               helper) for helper in helpers]
        _run_blocks(table, offsets, claim, reduce, carry, results, arena)
    for future in futures:
        future.result()
    return results


def _row_sums(mods: np.ndarray, arena) -> np.ndarray:
    """mods.sum(axis=-2), carved from ``arena`` when there is one."""
    return np.add.reduce(mods, axis=-2,
                         out=arena and arena.array(mods.shape[:-2] + mods.shape[-1:]))


def _block_max(mods: np.ndarray, arena) -> np.ndarray:
    return np.maximum.reduce(_row_sums(mods, arena), axis=-1)


def _block_argmax(mods: np.ndarray, arena):
    sums = _row_sums(mods, arena)
    t = np.argmax(sums, axis=-1)
    return np.take_along_axis(sums, t[..., None], axis=-1)[..., 0], t


def _overflow_safe(walk, X: np.ndarray, terms: int) -> np.ndarray:
    """walk(X) for a stack X whose members walk alone, at a power-of-two scale if needed.

    The sum of |x|^2 over X bounds the largest modulus squared in one BLAS
    call, which costs less than a pass of max(|x|) and does not warn when
    it overflows.  Below 2^1000 / ``terms``, every modulus is below 2^500
    and no sum of ``terms`` entries comes near the double range, so X is
    walked as it is.  Otherwise (an overflowed or NaN sum included)
    each member is walked at 2^-e, e the frexp exponent of its largest
    modulus, and scaled back.  A power of two commutes exactly with the
    walks' additions, moduli, maxima, fsum and divisions by powers of two,
    away from subnormals, so no bit moves unless entries span about
    2^1000; a result beyond the double range comes back inf.
    """
    if np.vdot(X, X).real < 2.0 ** 1000 / terms:
        return walk(X)
    e = np.frexp(np.abs(X).reshape(len(X), -1).max(axis=-1))[1]
    values = walk(X * np.ldexp(1.0, -e).reshape((-1,) + (1,) * (X.ndim - 1)))
    with np.errstate(over="ignore"):
        return np.ldexp(values, e)


def _finite(value: float, what: str) -> float:
    """``value``, refused when it lies beyond the double range."""
    if math.isinf(value):
        raise ValueError(f"{what} is beyond the double range (above {sys.float_info.max!r})")
    return value


def _smaller_side(E: np.ndarray) -> np.ndarray:
    """E, or its transpose when E has more columns than rows: ||A|| = ||A^T||."""
    return E if E.shape[-1] <= E.shape[-2] else np.swapaxes(E, -1, -2)


def _sign_norms(E: np.ndarray) -> np.ndarray:
    """max over sign vectors y of sum_k |(e y)_k|, e each matrix of E on its smaller side.

    y[0] is pinned to +1: y and -y give equal values.
    """
    e = _smaller_side(E)
    return functools.reduce(np.maximum, _walk(e[..., 0], e[..., 1:], 2, _SIGN_TABLE_CAP,
                                              _block_max))


def _real_norms(E: np.ndarray, cap: int = REAL_ENUM_CAP) -> np.ndarray:
    """Exact ||A|| for each real K x N matrix of the stack E (B, K, N).

    Entries near the top of the double range are walked at a power-of-two
    scale (``_overflow_safe``); a norm is inf only beyond the double range.
    """
    k, n = E.shape[-2:]
    if min(k, n) > cap:
        raise CapacityError(
            f"sign enumeration needs 2^{min(k, n) - 1} patterns but the cap is "
            f"min(K, N) = {cap} (2^{cap - 1}); raise `cap` explicitly to proceed"
        )
    return _overflow_safe(_sign_norms, E, k * n)


def real_sup_norm(A: BilinearForm, cap: int = REAL_ENUM_CAP) -> float:
    """Exact ||A|| for a real form, maximized over the sign vectors of one side.

    ||A|| = ||A^T||, so the walk runs over the smaller side (the columns
    when K = N).  Refuses (rather than approximates) when min(K, N) exceeds
    ``cap``; the stochastic lower bounds in ``litt43.search`` cover larger shapes.
    A norm beyond the double range raises ValueError.
    """
    if A.is_complex:
        raise ValueError("real_sup_norm requires a real-tagged form")
    return _finite(float(_real_norms(A.entries[None], cap)[0]), "the norm")


def _grid_walk(E: np.ndarray, m: int, budget: int, reduce) -> list:
    """The walk over T_M^n, first coordinate pinned to 1, for the smaller side e of a stack E."""
    m = _as_integer(m, "M", 3)
    e = _smaller_side(E)
    n = e.shape[-1]
    evals = m ** (n - 1)
    if evals > budget:
        raise CapacityError(
            f"T_{m}^{n} enumeration over min(K, N) = {n} coordinates needs {evals} "
            f"objective evaluations (after fixing the global phase) but the budget is {budget}"
        )
    return _walk(e[..., 0], e[..., 1:], m, _ROOT_TABLE_CAP, reduce)


def _grid_norms(E: np.ndarray, m: int, budget: int = DEFAULT_EVAL_BUDGET) -> np.ndarray:
    """||A||_M over the smaller side for each K x N matrix of the stack E (B, K, N)."""
    return functools.reduce(np.maximum, _grid_walk(E, m, budget, _block_max))


def complex_norm_discrete(A: BilinearForm, m: int,
                          budget: int = DEFAULT_EVAL_BUDGET) -> float:
    """Exact maximum of sum_k |sum_j A_kj y_j| over y in T_M^N, over the smaller side.

    A form with more columns than rows is walked as its transpose, since
    ||A|| = ||A^T||: the first of its min(K, N) coordinates is pinned to 1
    (global phase invariance), so the enumeration costs M^(min(K,N)-1)
    objective evaluations, which is what the budget counts.  Real-tagged
    forms are accepted and treated as complex.
    The form is walked at ``_overflow_safe``'s scale; a norm beyond the
    double range raises ValueError.
    """
    norms = _overflow_safe(functools.partial(_grid_norms, m=m, budget=budget),
                           A.entries[None], A.rows * A.cols)
    return _finite(float(norms[0]), "the norm")


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
    the bracket is at most ``_ASCENT_ANGLE_TOL`` wide.  The zoom only
    chooses the angle: the candidate value is f evaluated afresh at the
    feasible point e^(it), and a move is accepted only on strict
    improvement, so the returned value is a valid lower bound on ||A||.
    """
    n = entries.shape[1]
    y = y.astype(np.complex128).copy()
    s = entries @ y
    value = float(np.abs(s).sum())
    for _ in range(_ASCENT_SWEEPS):
        previous = value
        for j in range(n):
            aj = entries[:, j]
            c = s - aj * y[j]
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
        if value - previous <= _ASCENT_REL_TOL * value:
            break
    return value


def complex_norm_bounds(A: BilinearForm, m: int, refine: bool = False,
                        budget: int = DEFAULT_EVAL_BUDGET) -> TorusNormBounds:
    """Certified interval for ||A||: [||A||_M (optionally refined), ||A||_M / R_M].

    The grid, its budget and the refinement run over the smaller side, as
    in ``complex_norm_discrete``.  Refinement runs coordinate-wise phase
    ascent from the grid maximizer; it can only raise the lower endpoint
    through feasible evaluations, so the interval stays valid.  A form
    with one row or one column is not refined: its grid norm is its norm.
    The upper endpoint always uses the unrefined grid norm, whose R_M
    guarantee is what certification needs.  The form is walked and refined
    at ``_overflow_safe``'s scale; an upper endpoint beyond the double
    range raises ValueError.
    """
    m = _as_integer(m, "M", 3)
    factor = r_m(m)

    def ends(E):
        """[[discrete, lower]] of the one form of the stack E, walked on its smaller side."""
        e = _smaller_side(E)
        blocks = [(float(v[0]), int(t[0])) for v, t in _grid_walk(e, m, budget, _block_argmax)]
        h = max(range(len(blocks)), key=lambda i: blocks[i][0])  # first maximal block
        discrete, t = blocks[h]
        lower = discrete
        free = e.shape[-1] - 1
        # one walked coordinate (a 1xN or Nx1 form): the grid norm is already
        # the norm sum |a_j|, and the ascent could only round above it
        if refine and free and discrete > 0.0:
            digits = np.unravel_index(h * (m ** free // len(blocks)) + t, (m,) * free,
                                      order="F")
            y = np.concatenate(([1.0 + 0.0j], _roots(m)[list(digits)]))
            # C order: products with an F-ordered form sum in another order
            lower = max(lower, _coordinate_phase_ascent(
                np.ascontiguousarray(e[0], dtype=np.complex128), y))
        return np.array([[discrete, lower]])

    discrete, lower = map(float, _overflow_safe(ends, A.entries[None], A.rows * A.cols)[0])
    upper = _finite(discrete / factor, "the upper bound")
    # feasible ascent cannot mathematically exceed ||A|| <= upper; guard
    # against rounding at the scale of the last digit only
    lower = min(lower, upper)
    return TorusNormBounds(lower=lower, upper=upper, m=m, r_m=factor,
                           discrete_norm=discrete)

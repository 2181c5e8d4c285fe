"""Finite bilinear forms as matrices, and mixed l_b(l_a) norms.

A form on c0 x c0 is truncated to its K x N coefficient matrix
``entries[k, j] = A(e_k, e_j)``; rows index the *first* argument
everywhere in this package.  The mixed norm takes the l_a norm along
each row (over j) and then the l_b norm of the row values (over k),
with an infinite exponent meaning the supremum at that level.

One kernel, ``_mixed_norms``, evaluates it for ``mixed_norm``, for the
exponent grids of the verification checks and for ``khinchin.lr_norm``
(the l_r norm of a vector is the (r, 1) norm of a 1 x N matrix).  Above
10,000 entries per matrix every power sum goes through math.fsum, so
all of them are exactly rounded there, independent of platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SerializationError
from .exponents import ExponentPair, _as_integer
from .jsonio import canonical_dumps, loads, require_field

__all__ = [
    "BilinearForm",
    "MixedNormValue",
    "mixed_norm",
    "transpose",
    "witness_a0",
    "random_form",
    "form_to_json",
    "form_from_json",
    "save_form",
    "load_form",
]

# Above this entry count per matrix, _mixed_norms takes every power sum with
# math.fsum (exactly rounded, so independent of summation order and platform).
_COMPENSATED_SUM_THRESHOLD = 10_000


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """Immutable K x N matrix of a bilinear form, tagged with its scalar field."""

    field: str  # "real" | "complex"
    entries: np.ndarray

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        dtype = np.float64 if self.field == "real" else np.complex128
        arr = np.array(self.entries, dtype=dtype)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"entries must be a K x N matrix with K, N >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def is_complex(self) -> bool:
        return self.field == "complex"


@dataclass(frozen=True)
class MixedNormValue:
    value: float
    pair: ExponentPair

    def __float__(self) -> float:
        return self.value


def _lp(vals: np.ndarray, p: float):
    """l_p norms along the last axis of a nonnegative array (sup for p = oo)."""
    if p == math.inf:
        return vals.max(axis=-1)
    if p == 1.0:
        return vals.sum(axis=-1)
    return np.power(np.power(vals, p).sum(axis=-1), 1.0 / p)


def _lp_fsum(vals: np.ndarray, p: float):
    """_lp(vals, p), each sum exactly rounded by math.fsum."""
    if p == math.inf:
        return vals.max(axis=-1)
    return np.power(np.apply_along_axis(math.fsum, -1, np.power(vals, p)), 1.0 / p)


def _mixed_norms(E: np.ndarray, inner, outer) -> np.ndarray:
    """mixed_norm(A, (a, b)).value for each matrix A of the stack E (B, K, N),
    each a in ``inner`` and each b in ``outer``, as (B, I, O).

    Exponents are floats in [1, oo].  |E| is scaled by each matrix's
    largest magnitude (a zero matrix by 1) and reduced once per inner
    exponent; each outer exponent then reduces only the K row norms.  E is
    made C-contiguous first: numpy sums a contiguous row pairwise but a
    strided one in sequence, so without it the last bits would depend on
    the layout of the caller's array.
    """
    mags = np.abs(np.ascontiguousarray(E))
    top = mags.max(axis=(-2, -1), keepdims=True)
    top[top == 0.0] = 1.0
    scaled = mags / top
    lp = _lp if E.shape[-2] * E.shape[-1] <= _COMPENSATED_SUM_THRESHOLD else _lp_fsum
    out = np.empty((E.shape[0], len(inner), len(outer)))
    for i, a in enumerate(inner):
        rows = lp(scaled, a)
        for o, b in enumerate(outer):
            out[:, i, o] = lp(rows, b)
    return top * out


def mixed_norm(A: BilinearForm, pair: ExponentPair) -> MixedNormValue:
    """(sum_k (sum_j |A_kj|^a)^(b/a))^(1/b), with sup at any infinite level.

    Entries are scaled by the largest magnitude before powering, which keeps
    intermediate powers in range for any exponent and makes the norm exactly
    homogeneous up to rounding.  Above 10,000 entries every power sum is
    taken with math.fsum, here as in the grid evaluations and ``lr_norm``.
    """
    value = _mixed_norms(A.entries[None], (pair.a.value,), (pair.b.value,))[0, 0, 0]
    return MixedNormValue(float(value), pair)


def transpose(A: BilinearForm) -> BilinearForm:
    """Swap the two arguments: entry'[j][k] = entry[k][j]."""
    return BilinearForm(A.field, A.entries.T)


def witness_a0(field: str = "real") -> BilinearForm:
    """The extremal 2x2 form [[1, 1], [1, -1]] attaining the sharp real constant."""
    return BilinearForm(field, [[1.0, 1.0], [1.0, -1.0]])


_T4 = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def random_form(field: str, rows: int, cols: int, distribution: str = "gaussian",
                seed: int = 0) -> BilinearForm:
    """Seeded random K x N form.

    distributions:
      * ``gaussian``    - standard normal entries (independent re/im parts
                          in the complex case);
      * ``sign``        - entries in {-1, +1}, or in T_4 = {1, i, -1, -i};
      * ``sparse-sign`` - sign entries zeroed independently with probability
                          2/3 (at least one entry is forced nonzero).
    """
    shape = (_as_integer(rows, "rows", 1), _as_integer(cols, "cols", 1))
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    rng = np.random.default_rng(_as_integer(seed, "seed", 0))
    if distribution == "gaussian":
        entries = rng.standard_normal(shape)
        if field == "complex":
            entries = entries + 1j * rng.standard_normal(shape)
    elif distribution in ("sign", "sparse-sign"):
        if field == "real":
            entries = rng.choice([-1.0, 1.0], size=shape)
        else:
            entries = rng.choice(_T4, size=shape)
        if distribution == "sparse-sign":
            mask = rng.random(shape) < 2.0 / 3.0
            if mask.all():
                mask.flat[int(rng.integers(mask.size))] = False
            entries = np.where(mask, 0.0, entries)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return BilinearForm(field, entries)


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"field": "real"|"complex", "rows": K, "cols": N, "entries": [...]} with
# entries row-major: plain numbers in real mode, [re, im] pairs in complex
# mode (imaginary parts mandatory there, forbidden for real forms).
# ---------------------------------------------------------------------------

def form_to_json(A: BilinearForm) -> dict:
    if A.is_complex:
        entries = [[float(z.real), float(z.imag)] for z in A.entries.ravel()]
    else:
        entries = [float(x) for x in A.entries.ravel()]
    return {"field": A.field, "rows": A.rows, "cols": A.cols, "entries": entries}


def _plain_number(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float))


def form_from_json(doc: dict) -> BilinearForm:
    if not isinstance(doc, dict):
        raise SerializationError("matrix document must be a JSON object")
    field = require_field(doc, "field", str)
    if field not in ("real", "complex"):
        raise SerializationError(f"field 'field' must be 'real' or 'complex', got {field!r}")
    rows = require_field(doc, "rows", int)
    cols = require_field(doc, "cols", int)
    entries = require_field(doc, "entries", list)
    if rows < 1 or cols < 1:
        raise SerializationError(f"fields 'rows'/'cols' must be >= 1, got {rows} x {cols}")
    if len(entries) != rows * cols:
        raise SerializationError(
            f"field 'entries' has {len(entries)} items, expected rows*cols = {rows * cols}"
        )
    flat = []
    for i, item in enumerate(entries):
        if field == "real" and _plain_number(item):
            flat.append(float(item))
        elif (field == "complex" and isinstance(item, list) and len(item) == 2
              and all(map(_plain_number, item))):
            flat.append(complex(item[0], item[1]))
        else:
            shape = "a plain number" if field == "real" else "an [re, im] pair"
            raise SerializationError(f"field 'entries'[{i}] must be {shape} in {field} mode")
    arr = np.array(flat).reshape(rows, cols)
    if not np.all(np.isfinite(arr)):
        raise SerializationError("field 'entries' contains non-finite values")
    return BilinearForm(field, arr)


def save_form(A: BilinearForm, path) -> None:
    Path(path).write_text(canonical_dumps(form_to_json(A)) + "\n", encoding="ascii")


def load_form(path) -> BilinearForm:
    return form_from_json(loads(Path(path).read_text(encoding="ascii")))

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from litt43 import forms, khinchin, opnorm
from litt43.errors import CapacityError
from litt43.exponents import ExponentPair, conjugate
from litt43.forms import BilinearForm, mixed_norm, random_form, transpose, witness_a0
from litt43.opnorm import (REAL_ENUM_CAP, complex_norm_bounds, complex_norm_discrete, r_m,
                           real_sup_norm)

SQRT2 = math.sqrt(2.0)


def naive_real_norm(entries):
    """Fresh evaluation over every (x, y) sign combination; the test oracle."""
    k, n = entries.shape
    best = 0.0
    for ys in itertools.product((-1.0, 1.0), repeat=n):
        for xs in itertools.product((-1.0, 1.0), repeat=k):
            value = abs(sum(xs[i] * entries[i, j] * ys[j]
                            for i in range(k) for j in range(n)))
            best = max(best, value)
    return best


def naive_complex_grid_norm(entries, m):
    """Full T_M^N enumeration without phase fixing; the test oracle."""
    k, n = entries.shape
    roots = [complex(math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
             for j in range(m)]
    best = 0.0
    for ys in itertools.product(roots, repeat=n):
        value = sum(abs(sum(entries[i, j] * ys[j] for j in range(n))) for i in range(k))
        best = max(best, float(value))
    return best


def _points(m):
    return np.array([1.0, -1.0]) if m == 2 else np.exp(2j * np.pi * np.arange(m) / m)


class TestWalkHighDigits:
    """The pattern walk with a table cap small enough to leave high digits.

    A cap of M^2 tabulates two of the four free columns, so two high digits
    run over M^2 blocks; every pattern is also evaluated on its own.
    """

    @staticmethod
    def _case(m, k):
        rng = np.random.default_rng(10 * m + k)
        first = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        cols = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
        # digit tuples in pattern order: column 0 least significant
        values = [float(np.abs(first + cols @ _points(m)[list(d[::-1])]).sum())
                  for d in itertools.product(range(m), repeat=4)]
        return first, cols, values

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_max_reducer(self, m, k):
        first, cols, values = self._case(m, k)
        blocks = opnorm._walk(first, cols, m, m ** 2, opnorm._block_max)
        assert len(blocks) == m ** 2
        assert max(blocks) == pytest.approx(max(values), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_mean_reducer(self, m, k):
        first, cols, values = self._case(m, k)
        sums = opnorm._walk(first, cols, m, m ** 2, lambda block, arena: float(np.abs(block).sum()))
        assert math.fsum(sums) / m ** 4 == pytest.approx(math.fsum(values) / m ** 4,
                                                         rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_argmax_reducer_indexes_patterns(self, m, k):
        first, cols, values = self._case(m, k)
        blocks = opnorm._walk(first, cols, m, m ** 2, opnorm._block_argmax)
        for h, (value, t) in enumerate(blocks):
            assert value == pytest.approx(values[h * m ** 2 + t], rel=1e-12)
            digits = np.unravel_index(h * m ** 2 + t, (m,) * 4, order="F")
            direct = np.abs(first + cols @ _points(m)[list(digits)]).sum()
            assert value == pytest.approx(float(direct), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_real_norm_matches_naive_oracle(self, k, monkeypatch):
        # (k + 4) x 5 and 5 x (k + 4): the walk runs over the 5-coordinate
        # side, 4 free signs of which 3 are high digits
        monkeypatch.setattr(opnorm, "_SIGN_TABLE_CAP", 2)
        rng = np.random.default_rng(40 + k)
        for _ in range(3):
            entries = rng.standard_normal((k + 4, 5))
            for e in (entries, entries.T):
                assert real_sup_norm(BilinearForm("real", e)) == pytest.approx(
                    naive_real_norm(e), rel=1e-12)

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_complex_norm_matches_naive_oracle(self, m, k, monkeypatch):
        rng = np.random.default_rng(50 + 10 * m + k)
        entries = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
        form = BilinearForm("complex", entries)
        whole = complex_norm_bounds(form, m, refine=True)
        monkeypatch.setattr(opnorm, "_ROOT_TABLE_CAP", m)
        assert complex_norm_discrete(form, m) == pytest.approx(
            naive_complex_grid_norm(entries, m), rel=1e-12)
        # the refinement starts from the same maximizing pattern either way
        split = complex_norm_bounds(form, m, refine=True)
        assert split.discrete_norm == pytest.approx(whole.discrete_norm, rel=1e-12)
        assert split.lower == pytest.approx(whole.lower, rel=1e-12)


class TestRealSupNorm:
    def test_witness_norm_two(self):
        assert real_sup_norm(witness_a0("real")) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_identity(self, n):
        assert real_sup_norm(BilinearForm("real", np.eye(n))) == pytest.approx(n, rel=1e-15)

    def test_single_entry(self):
        assert real_sup_norm(BilinearForm("real", [[-2.5]])) == 2.5

    def test_rejects_complex_tag(self):
        with pytest.raises(ValueError):
            real_sup_norm(witness_a0("complex"))

    def test_cap_refusal_names_cap(self):
        # the cap counts the smaller side, so both sides must exceed it
        form = random_form("real", 6, 6, "gaussian", seed=0)
        with pytest.raises(CapacityError, match=r"min\(K, N\) = 5"):
            real_sup_norm(form, cap=5)

    def test_entries_near_the_top_of_the_double_range(self):
        # unscaled, the signed sum 1e308 + 1e307 of the first column
        # overflows no more, but 2e308 would; the walk scales by 2^-1024
        form = BilinearForm("real", [[1e308, 1e307], [1e307, -1e307]])
        small = BilinearForm("real", np.ldexp(form.entries, -1000))
        assert real_sup_norm(form) == math.ldexp(real_sup_norm(small), 1000) == 1.1e308

    def test_norm_beyond_the_double_range_is_refused(self):
        form = BilinearForm("real", [[1e308, 1e308], [1e308, -1e308]])  # norm 4e308
        with pytest.raises(ValueError, match="beyond the double range"):
            real_sup_norm(form)

    def test_scaled_member_leaves_its_stack_neighbours_bits(self):
        rng = np.random.default_rng(31)
        ordinary = rng.standard_normal((2, 5, 6))
        stack = np.concatenate([np.full((1, 5, 6), 1e308), ordinary])
        norms = opnorm._real_norms(stack)
        assert np.isinf(norms[0])
        assert norms[1:].tobytes() == opnorm._real_norms(ordinary).tobytes()

    def test_nan_member_leaves_its_stack_neighbours_bits(self):
        # a NaN makes the stack's overflow bound NaN, which takes the scaled path
        ordinary = np.random.default_rng(34).standard_normal((2, 4, 4))
        stack = np.concatenate([np.full((1, 4, 4), np.nan), ordinary])
        norms = opnorm._real_norms(stack)
        assert np.isnan(norms[0])
        assert norms[1:].tobytes() == opnorm._real_norms(ordinary).tobytes()

    def test_wide_form_beyond_cap_is_exact(self):
        # 2^29 column patterns, but only 2 sign patterns of the two rows
        rng = np.random.default_rng(18)
        entries = rng.standard_normal((2, REAL_ENUM_CAP + 6))
        exact = max(math.fsum(abs(entries[0] + s * entries[1])) for s in (1.0, -1.0))
        assert real_sup_norm(BilinearForm("real", entries)) == pytest.approx(exact,
                                                                             rel=1e-14)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(99)
        for t in range(30):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            entries = rng.standard_normal((k, n))
            fast = real_sup_norm(BilinearForm("real", entries))
            assert fast == pytest.approx(naive_real_norm(entries), rel=1e-12)

    def test_blocked_equals_patternwise_recompute(self):
        # re-evaluate every sign pattern from scratch at N = 12 (a tall
        # form, so the walk runs over the 12 columns)
        rng = np.random.default_rng(5)
        entries = rng.standard_normal((13, 12))
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=11)))
        ys = np.hstack([np.ones((signs.shape[0], 1)), signs])
        naive = np.abs(entries @ ys.T).sum(axis=0).max()
        assert real_sup_norm(BilinearForm("real", entries)) == pytest.approx(
            float(naive), rel=1e-12)

    def test_gray_walk_over_high_bits_n17(self):
        # N - 1 > 14 exercises the tabulated-block / high-digit split (a
        # tall form, so the walk runs over the 17 columns)
        rng = np.random.default_rng(6)
        entries = rng.standard_normal((18, 17))
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=16)))
        ys = np.hstack([np.ones((signs.shape[0], 1)), signs])
        naive = np.abs(entries @ ys.T).sum(axis=0).max()
        assert real_sup_norm(BilinearForm("real", entries)) == pytest.approx(
            float(naive), rel=1e-12)

    def test_scaling(self):
        rng = np.random.default_rng(12)
        entries = rng.standard_normal((4, 5))
        base = real_sup_norm(BilinearForm("real", entries))
        assert real_sup_norm(BilinearForm("real", 3.5 * entries)) == pytest.approx(
            3.5 * base, rel=1e-13)

    def test_dominates_dense_cube_sample(self):
        # the vertex enumeration must dominate |A(x, y)| at interior points,
        # the independent check that eliminating x and restricting y to
        # vertices loses nothing
        rng = np.random.default_rng(21)
        entries = rng.standard_normal((4, 4))
        norm = real_sup_norm(BilinearForm("real", entries))
        xs = rng.uniform(-1, 1, size=(2000, 4))
        ys = rng.uniform(-1, 1, size=(2000, 4))
        values = np.abs(np.einsum("ti,ij,tj->t", xs, entries, ys))
        assert values.max() <= norm + 1e-12


def _layouts(entries):
    """The same matrix as C-ordered, F-ordered and two strided views."""
    k, n = entries.shape
    strided = np.zeros((2 * k, 3 * n), dtype=entries.dtype)
    strided[::2, ::3] = entries
    reversed_ = np.zeros((2 * k, 3 * n), dtype=entries.dtype)
    reversed_[::-2, ::-3] = entries
    return [np.ascontiguousarray(entries), np.asfortranarray(entries),
            strided[::2, ::3], reversed_[::-2, ::-3]]


@st.composite
def _non_square(draw):
    k, n = draw(st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True))
    return draw(arrays(np.float64, (k, n), elements=st.floats(-1e3, 1e3)))


@settings(max_examples=40, deadline=None)
@given(_non_square())
def test_real_norm_is_layout_and_transpose_invariant(entries):
    # ||A|| = ||A^T||, and A and A^T walk the same shorter side, bit for bit
    form = BilinearForm("real", entries)
    values = {real_sup_norm(form), real_sup_norm(transpose(form))}
    values |= {real_sup_norm(BilinearForm("real", e))
               for e in _layouts(entries) + _layouts(entries.T)}
    assert len(values) == 1
    assert values.pop() == pytest.approx(naive_real_norm(entries), rel=1e-12, abs=1e-300)


_STACK_PAIRS = [(4.0 / 3.0, 4.0 / 3.0), (1.0, 2.0), (2.0, math.inf), (math.inf, 1.0),
                (3.0, 1.5)]


@st.composite
def _form_stacks(draw):
    """B in 1..5 forms of one shape and field, each member in its own layout.

    Up to 12 columns, so rows reach numpy's pairwise summation (8 or more
    terms); the side a walk enumerates stays small.
    """
    field = draw(st.sampled_from(["real", "complex"]))
    # one-coordinate sides often: their walk sums a view of the input
    k = draw(st.one_of(st.just(1), st.integers(1, 10)))
    n = draw(st.one_of(st.just(1), st.integers(1, 12 if k <= 6 else 6)))
    b = draw(st.integers(1, 5))
    # Gaussian entries make every last bit of a sum depend on its order
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    entries = rng.standard_normal((b, k, n)) * 10.0 ** draw(st.integers(-3, 3))
    if field == "complex":
        entries = entries + 1j * rng.standard_normal((b, k, n))
    entries[rng.random((b, k, n)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    members = [_layouts(e)[draw(st.integers(0, 3))] for e in entries]
    stack = np.stack(members)
    stack = draw(st.sampled_from([stack, np.asfortranarray(stack),
                                  np.stack(members[::-1])[::-1]]))
    return field, members, stack


# F-ordered stack of 1 x 9 forms: the walk sums a strided view of the input
# over the 9 rows, in another order unless the table is made contiguous
_ONE_ROW = 10.0 * np.random.default_rng(5).standard_normal((2, 1, 9))


@settings(max_examples=60, deadline=None)
@given(_form_stacks(), st.sampled_from(_STACK_PAIRS), st.sampled_from([3, 4, 8]),
       st.sampled_from([2, 4, None]), st.sampled_from([1, opnorm._STACK_ELEMENTS]))
@example(("real", list(_ONE_ROW), np.asfortranarray(_ONE_ROW)), _STACK_PAIRS[0], 3, None,
         opnorm._STACK_ELEMENTS)
def test_batched_cores_match_public_functions(case, pair, m, cap, bound):
    # each member of a stack gets the bits the public function gives it
    # alone, on the one-table path and across high digits (small caps),
    # whether the walk splits the stack (bound 1) or not
    field, members, stack = case
    pair = ExponentPair.of(*pair)
    sign_cap = cap or opnorm._SIGN_TABLE_CAP
    root_cap = m ** (cap // 2) if cap else opnorm._ROOT_TABLE_CAP
    with mock.patch.object(opnorm, "_SIGN_TABLE_CAP", sign_cap), \
            mock.patch.object(opnorm, "_ROOT_TABLE_CAP", root_cap), \
            mock.patch.object(opnorm, "_STACK_ELEMENTS", bound):
        mixed = forms._mixed_norms(stack, (pair.a.value,), (pair.b.value,))[:, 0, 0]
        real = opnorm._real_norms(stack) if field == "real" else None
        grid = opnorm._grid_norms(stack, m) if stack.shape[-1] <= 4 else None
        for i, member in enumerate(members):
            form = BilinearForm(field, member)
            assert mixed[i] == mixed_norm(form, pair).value
            if real is not None:
                assert real[i] == real_sup_norm(form)
            if grid is not None:
                assert grid[i] == complex_norm_discrete(form, m)
                assert grid[i] / r_m(m) == complex_norm_bounds(form, m).upper


_GRID_EXPONENTS = [math.inf, 4.0, 2.0, 4.0 / 3.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(_form_stacks())
def test_grid_stack_members_match_batch_of_one(case):
    # each member of a _mixed_norms grid stack (C, F, strided or reversed,
    # in a C, F or reversed stack) gets the bits of its own batch of one
    _, members, stack = case
    ps = _GRID_EXPONENTS
    grids = forms._mixed_norms(stack, ps, ps)
    for i, member in enumerate(members):
        alone = forms._mixed_norms(member[None], ps, ps)[0]
        assert grids[i].tobytes() == alone.tobytes()


def test_split_stacks_keep_their_members_in_order():
    # the stacks of check_lemma_ceilings at 21 forms (7 shapes, the shape
    # depends on t mod 7, 3 forms each) and Steinhaus rows whose |a_1|,
    # carried beside the walk, differ member by member: one member per part
    # and one part per stack must give every member the same bits
    stacks = {}
    for t in range(21):
        shape = (2 + t % 7, 2 + (t * 3 + 1) % 7)
        form = random_form("real", *shape, "gaussian" if t % 2 == 0 else "sign", seed=1 + t)
        stacks.setdefault(shape, []).append(form.entries)
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    rows[:, 0] *= np.arange(1, 6)
    runs = []
    for elements in (1, 1 << 40):
        with mock.patch.object(opnorm, "_STACK_ELEMENTS", elements):
            runs.append([opnorm._real_norms(np.stack(s)) for s in stacks.values()]
                        + list(khinchin._quadrature(rows, 8)))
    assert len(runs[0]) == 7 + 2
    for split, whole in zip(*runs):
        assert split.tobytes() == whole.tobytes()


@pytest.mark.parametrize("writable", [False, True])
def test_walk_leaves_inputs_without_free_columns_unchanged(writable):
    # with no free column the walk's table is a view of the caller's
    # array: moduli taken in place there would turn negative entries
    # positive, or raise on a read-only form
    stacks = [-np.arange(1.0, 4.0).reshape(1, 3, 1), np.full((2, 1, 1), -2.0)]
    for stack in stacks:
        stack.setflags(write=writable)
        before = stack.copy()
        assert np.array_equal(opnorm._real_norms(stack), np.abs(before).sum(axis=(-2, -1)))
        assert np.array_equal(opnorm._grid_norms(stack, 3), np.abs(before).sum(axis=(-2, -1)))
        assert np.array_equal(stack, before)
    for shape in [(3, 1), (1, 1)]:
        form = BilinearForm("real", -np.ones(shape))
        assert real_sup_norm(form) == shape[0]
        assert complex_norm_bounds(form, 4).discrete_norm == shape[0]
        assert np.array_equal(form.entries, -np.ones(shape))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.sampled_from([3, 4, 8]), st.booleans(),
       st.integers(0, 2**32))
def test_refined_bounds_ignore_layout_and_dtype(k, n, m, real_valued, seed):
    # entries held exactly in single precision, as every layout of a
    # single- and a double-precision array (and, when real, as complex)
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((k, n))
    if not real_valued:
        entries = entries + 1j * rng.standard_normal((k, n))
    single = entries.astype(np.float32 if real_valued else np.complex64)
    double = single.astype(np.float64 if real_valued else np.complex128)
    variants = _layouts(single) + _layouts(double) + [double.astype(np.complex128)]
    results = {(b.lower, b.upper, b.discrete_norm)
               for b in (complex_norm_bounds(BilinearForm("complex", e), m, refine=True)
                         for e in variants)}
    assert len(results) == 1


class TestComplexNormDiscrete:
    def test_witness_m4(self):
        value = complex_norm_discrete(witness_a0("complex"), 4)
        assert value == pytest.approx(2 * SQRT2, rel=1e-12)
        assert value == pytest.approx(
            naive_complex_grid_norm(witness_a0("complex").entries, 4), rel=1e-12)

    def test_single_entry_any_m(self):
        form = BilinearForm("complex", [[3.0 - 4.0j]])
        for m in (3, 4, 7, 16):
            assert complex_norm_discrete(form, m) == pytest.approx(5.0, rel=1e-15)

    def test_dominates_real_norm_at_m4(self):
        rng = np.random.default_rng(17)
        for t in range(10):
            entries = rng.standard_normal((3, 3))
            real_value = real_sup_norm(BilinearForm("real", entries))
            complex_value = complex_norm_discrete(BilinearForm("complex", entries), 4)
            assert complex_value >= real_value - 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        for t in range(8):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            entries = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            for m in (3, 4, 5):
                fast = complex_norm_discrete(BilinearForm("complex", entries), m)
                assert fast == pytest.approx(
                    naive_complex_grid_norm(entries, m), rel=1e-12)

    def test_budget_error_names_requirement(self):
        form = random_form("complex", 2, 9, "gaussian", seed=1)
        with pytest.raises(CapacityError, match="budget"):
            complex_norm_discrete(form, 16, budget=10**6)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            complex_norm_discrete(witness_a0("complex"), 2)


class TestRm:
    def test_m3_is_half(self):
        assert r_m(3) == pytest.approx(0.5, abs=1e-15)

    def test_m4_is_sqrt_half(self):
        assert r_m(4) == pytest.approx(SQRT2 / 2, rel=1e-15)

    def test_infinite_m(self):
        assert r_m(math.inf) == 1.0

    def test_strictly_increasing(self):
        values = [r_m(m) for m in range(3, 65)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_below_three(self):
        with pytest.raises(ValueError):
            r_m(2)


class TestComplexNormBounds:
    def test_witness_sandwich_m4(self):
        bounds = complex_norm_bounds(witness_a0("complex"), 4, refine=True)
        assert bounds.lower == pytest.approx(2 * SQRT2, rel=1e-12)
        assert bounds.upper == pytest.approx(4.0, rel=1e-12)
        assert bounds.discrete_norm <= bounds.lower <= bounds.upper

    def test_m64_refined_interval_tight(self):
        bounds = complex_norm_bounds(witness_a0("complex"), 64, refine=True)
        assert bounds.width < 0.02
        assert bounds.lower <= 2 * SQRT2 + 1e-12 and 2 * SQRT2 <= bounds.upper

    def test_zero_matrix(self):
        bounds = complex_norm_bounds(BilinearForm("complex", np.zeros((2, 2))), 8)
        assert bounds.lower == bounds.upper == 0.0

    def test_refinement_only_raises_lower(self):
        rng = np.random.default_rng(41)
        for t in range(5):
            entries = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            form = BilinearForm("complex", entries)
            plain = complex_norm_bounds(form, 4, refine=False)
            refined = complex_norm_bounds(form, 4, refine=True)
            assert refined.lower >= plain.lower - 1e-14
            assert refined.upper == plain.upper
            assert refined.lower <= refined.upper

    def test_nesting_sandwich_property(self):
        rng = np.random.default_rng(53)
        for t in range(12):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            entries = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            form = BilinearForm("complex", entries)
            for m in (3, 4, 5, 6, 8, 12):
                coarse = complex_norm_discrete(form, m)
                fine = complex_norm_discrete(form, 2 * m)
                assert coarse <= fine * (1 + 1e-12)
                assert fine <= coarse / r_m(m) * (1 + 1e-12)

    def test_scaling_of_endpoints(self):
        rng = np.random.default_rng(61)
        entries = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        form = BilinearForm("complex", entries)
        scaled = BilinearForm("complex", 2.5 * entries)
        b1 = complex_norm_bounds(form, 8, refine=True)
        b2 = complex_norm_bounds(scaled, 8, refine=True)
        assert b2.lower == pytest.approx(2.5 * b1.lower, rel=1e-12)
        assert b2.upper == pytest.approx(2.5 * b1.upper, rel=1e-12)

    @pytest.mark.parametrize("m", [3, 8, 16])
    @pytest.mark.parametrize("k", [600, -600])
    def test_power_of_two_scaling_is_bit_exact(self, m, k):
        # at 2^600 the walk scales the form back down; at 2^-600 it runs unscaled
        form = random_form("complex", 3, 5, seed=4)
        scaled = BilinearForm("complex", form.entries * 2.0 ** k)
        assert complex_norm_discrete(scaled, m) == math.ldexp(complex_norm_discrete(form, m), k)
        plain, big = complex_norm_bounds(form, m), complex_norm_bounds(scaled, m)
        for end in ("lower", "upper", "discrete_norm"):
            assert getattr(big, end) == math.ldexp(getattr(plain, end), k)

    def test_single_row_refinement_at_the_top_of_the_double_range(self):
        # unscaled, the closed-form phase of a single row multiplied moduli
        # near 2^600 and overflowed; largest modulus in [1/2, 1): the walk
        # scales the 2^600 form back to this one exactly
        entries = random_form("complex", 1, 4, seed=7).entries
        entries = 0.75 * entries / np.abs(entries).max()
        plain = complex_norm_bounds(BilinearForm("complex", entries), 8, refine=True)
        big = complex_norm_bounds(BilinearForm("complex", entries * 2.0 ** 600), 8,
                                  refine=True)
        assert plain.lower > plain.discrete_norm
        assert big.lower == math.ldexp(plain.lower, 600)
        assert big.upper == math.ldexp(plain.upper, 600)

    def test_bounds_beyond_the_double_range_are_refused(self):
        form = BilinearForm("complex", [[1e308, 1e308], [1e308, -1e308]])
        with pytest.raises(ValueError, match="beyond the double range"):
            complex_norm_bounds(form, 8)
        with pytest.raises(ValueError, match="beyond the double range"):
            complex_norm_discrete(form, 8)

    @pytest.mark.parametrize("norm", [2.0 ** -600, 1e-3, 1.0, 2.0 ** 600])
    def test_inconsistent_intervals_are_refused_at_every_scale(self, norm):
        # an absolute slack of 1e-12 passed any interval of a form below norm 1e-12
        factor = r_m(8)
        for lower, upper in ((norm / 2, norm / factor), (1.5 * norm, 1.2 * norm)):
            with pytest.raises(ValueError, match="inconsistent bounds"):
                opnorm.TorusNormBounds(lower=lower, upper=upper, m=8, r_m=factor,
                                       discrete_norm=norm)
        for lower in (norm, norm / factor):
            bounds = opnorm.TorusNormBounds(lower=lower, upper=norm / factor, m=8, r_m=factor,
                                            discrete_norm=norm)
            assert bounds.discrete_norm <= bounds.lower <= bounds.upper


def golden_section_ascent(entries, y):
    """The phase ascent with a scalar golden-section line search; the test oracle.

    Same sweeps, grid, tie-breaking and acceptance as
    ``opnorm._coordinate_phase_ascent``, but each coordinate's bracket
    around the grid maximizer is narrowed by about 55 sequential
    golden-section evaluations of the objective.
    """
    k, n = entries.shape
    y = y.astype(np.complex128).copy()
    s = entries @ y
    value = float(np.abs(s).sum())
    grid = 2.0 * np.pi * np.arange(64) / 64.0
    phases = np.exp(1j * grid)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(opnorm._ASCENT_SWEEPS):
        previous = value
        for j in range(n):
            aj = entries[:, j]
            c = s - aj * y[j]

            def objective(theta):
                return float(np.abs(c + aj * np.exp(1j * theta)).sum())

            if k == 1:
                if abs(aj[0]) == 0.0:
                    continue
                theta = math.atan2((c[0] * np.conj(aj[0])).imag,
                                   (c[0] * np.conj(aj[0])).real)
                theta = theta % (2.0 * math.pi)
            else:
                samples = np.abs(c[:, None] + aj[:, None] * phases[None, :]).sum(axis=0)
                at = int(np.argmax(samples))
                lo = grid[at] - 2.0 * np.pi / 64.0
                hi = grid[at] + 2.0 * np.pi / 64.0
                x1 = hi - invphi * (hi - lo)
                x2 = lo + invphi * (hi - lo)
                f1, f2 = objective(x1), objective(x2)
                while hi - lo > opnorm._ASCENT_ANGLE_TOL:
                    if f1 < f2:
                        lo, x1, f1 = x1, x2, f2
                        x2 = lo + invphi * (hi - lo)
                        f2 = objective(x2)
                    else:
                        hi, x2, f2 = x2, x1, f1
                        x1 = hi - invphi * (hi - lo)
                        f1 = objective(x1)
                theta = 0.5 * (lo + hi)
            candidate = objective(theta)
            if candidate > value:
                y[j] = np.exp(1j * theta)
                s = c + aj * y[j]
                value = candidate
        if value - previous <= opnorm._ASCENT_REL_TOL * max(value, 1.0):
            break
    return value


@pytest.mark.parametrize("block", range(10))
def test_refined_lower_matches_golden_section_oracle(block, monkeypatch):
    # 100 seeded forms per block: K 1-8, N 2-6, complex and real-valued
    # entries, M in {3, 4, 6, 8, 16}; both ascents start from the same
    # grid maximizer, so a single enumeration serves both
    ascent = opnorm._coordinate_phase_ascent
    oracle = []

    def both(entries, y):
        oracle.append(golden_section_ascent(entries, y))
        return ascent(entries, y)

    monkeypatch.setattr(opnorm, "_coordinate_phase_ascent", both)
    rng = np.random.default_rng(9000 + block)
    for t in range(100):
        k, n = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        m = int(rng.choice([3, 4, 6, 8, 16]))
        entries = rng.standard_normal((k, n))
        if t % 2:
            entries = entries + 1j * rng.standard_normal((k, n))
        bounds = complex_norm_bounds(BilinearForm("complex", entries), m, refine=True)
        expected = min(max(bounds.discrete_norm, oracle.pop()), bounds.upper)
        # the ascents stop at a relative gain of _ASCENT_REL_TOL per sweep
        assert bounds.lower >= expected * (1.0 - opnorm._ASCENT_REL_TOL), (k, n, m, t)
        assert bounds.discrete_norm <= bounds.lower <= bounds.upper


class TestMainInequalityCeilings:
    """The proved mixed-norm-vs-operator-norm bounds on random forms."""

    def test_sharp_ceiling_on_random_forms(self):
        rng = np.random.default_rng(71)
        grid = [(1.0, 1.0), (0.75, 0.75), (1.0, 0.5), (0.5, 1.0), (0.25, 0.25),
                (0.0, 1.0), (1.0, 0.2), (0.6, 0.9), (0.0, 0.0)]
        for t in range(40):
            n = int(rng.integers(1, 9))
            entries = rng.standard_normal((n, n))
            form = BilinearForm("real", entries)
            norm = real_sup_norm(form)
            for inv_a, inv_b in grid:
                if inv_a + inv_b > 1.5:
                    continue
                a = math.inf if inv_a == 0 else 1 / inv_a
                b = math.inf if inv_b == 0 else 1 / inv_b
                ceiling = 2.0 ** max(0.0, inv_a + inv_b - 1.0)
                value = mixed_norm(form, ExponentPair.of(a, b)).value
                assert value <= ceiling * norm + 1e-9

    def test_row_sum_lemma_ceiling(self):
        rng = np.random.default_rng(73)
        for t in range(40):
            entries = rng.standard_normal((int(rng.integers(1, 7)),
                                           int(rng.integers(1, 7))))
            form = BilinearForm("real", entries)
            norm = real_sup_norm(form)
            for a in (2.0, 3.0, 4.0, math.inf):
                inv_a = 0.0 if math.isinf(a) else 1.0 / a
                value = mixed_norm(form, ExponentPair.of(a, 1)).value
                assert value <= 2.0 ** inv_a * norm + 1e-9

    def test_conjugate_outer_lemma_ceiling(self):
        rng = np.random.default_rng(79)
        for t in range(40):
            entries = rng.standard_normal((int(rng.integers(1, 7)),
                                           int(rng.integers(1, 7))))
            form = BilinearForm("real", entries)
            norm = real_sup_norm(form)
            for a in (2.0, 3.0, 4.0, math.inf):
                a_star = conjugate(a).value
                value = mixed_norm(form, ExponentPair.of(a, a_star)).value
                assert value <= norm + 1e-9

    def test_frobenius_below_norm(self):
        rng = np.random.default_rng(83)
        for t in range(40):
            entries = rng.standard_normal((int(rng.integers(1, 7)),
                                           int(rng.integers(1, 7))))
            form = BilinearForm("real", entries)
            value = mixed_norm(form, ExponentPair.of(2, 2)).value
            assert value <= real_sup_norm(form) + 1e-9

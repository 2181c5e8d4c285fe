"""Exact symmetries of the kernels as test oracles, at every size.

A power-of-two scale commutes exactly with the additions, moduli, maxima
and divisions of every kernel here, away from subnormals and the top of
the double range: a form or vector scaled by 2^e must give its value
scaled by 2^e, bit for bit.  The scales reach 2^+-600, past the square
root of the double range, where a product of two entries leaves it.  A
column sign flip of a real form permutes its sign patterns and negates
whole row sums, so its norm does not move by a bit either.

Certified intervals of one norm must intersect: those of a complex form,
of its transpose and of a row permutation of it, and the real norm of a
real form must not exceed the complex upper end of the same entries.  A
form that is not square and its transpose walk the same side, so their
grid norms and refined intervals are bit-equal.

A real Rademacher average above N = 16 meets in the middle: a sign flip
of a coefficient other than the pinned last one permutes the half sums of
its side, so the bits do not move.  Reordering the coefficients, or
flipping any signs, moves each path's value within its stated bound of the
exact mean (``tests/test_khinchin.py``: 1 ulp split, 4 ulp walked), so two
such values agree within twice that.

The example count comes from the loaded hypothesis profile (40 by
default, 400 under ``--hypothesis-profile=symmetry-deep``; see
``conftest.py``).
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from litt43 import (BilinearForm, complex_norm_bounds, complex_norm_discrete, e_m_average,
                    rademacher_average, random_form, real_sup_norm, steinhaus_expectation,
                    transpose)

SCALES = st.sampled_from([-600, -30, 30, 600])
SEEDS = st.integers(0, 2 ** 32 - 1)
ROWS = st.one_of(st.just(1), st.integers(1, 4))  # one-row forms walk a single coordinate
SPLIT = st.integers(17, 24)  # real Rademacher lengths that meet in the middle
EXAMPLES = settings(deadline=None)
# ulps by which two orderings of one vector may differ: twice each path's
# bound against the exact mean (SPLIT_ULPS and WALK_ULPS in test_khinchin.py)
REORDER_ULPS = {"split": 2, "walk": 8}


def _scaled(A, e):
    return BilinearForm(A.field, A.entries * 2.0 ** e)


def _coeffs(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _real_coeffs(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)


@given(st.integers(1, 6), st.integers(1, 6), SCALES, SEEDS)
@EXAMPLES
def test_real_sup_norm_scales_exactly(rows, cols, e, seed):
    A = random_form("real", rows, cols, seed=seed)
    assert real_sup_norm(_scaled(A, e)) == math.ldexp(real_sup_norm(A), e)


@given(st.integers(1, 6), st.integers(1, 6), SEEDS, st.data())
@EXAMPLES
def test_real_sup_norm_ignores_column_signs(rows, cols, seed, data):
    A = random_form("real", rows, cols, seed=seed)
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=cols, max_size=cols))
    assert real_sup_norm(BilinearForm("real", A.entries * signs)) == real_sup_norm(A)


@given(ROWS, st.integers(1, 5), SCALES, SEEDS)
@EXAMPLES
def test_complex_norm_discrete_scales_exactly(rows, cols, e, seed):
    A = random_form("complex", rows, cols, seed=seed)
    assert complex_norm_discrete(_scaled(A, e), 8) == math.ldexp(complex_norm_discrete(A, 8), e)


@given(ROWS, st.integers(1, 5), SCALES, SEEDS)
@EXAMPLES
def test_refined_bounds_scale_exactly(rows, cols, e, seed):
    # the ascent stops on a relative gain, so no tolerance depends on the scale
    A = random_form("complex", rows, cols, seed=seed)
    bounds = complex_norm_bounds(A, 8, refine=True)
    scaled = complex_norm_bounds(_scaled(A, e), 8, refine=True)
    assert scaled.discrete_norm == math.ldexp(bounds.discrete_norm, e)
    assert scaled.upper == math.ldexp(bounds.upper, e)
    assert scaled.lower == math.ldexp(bounds.lower, e)


@given(st.integers(1, 6), SCALES, SEEDS)
@EXAMPLES
def test_averages_scale_exactly(n, e, seed):
    c = _coeffs(n, seed)
    scaled = c * 2.0 ** e
    assert rademacher_average(scaled).value == math.ldexp(rademacher_average(c).value, e)
    assert e_m_average(scaled, 3).value == math.ldexp(e_m_average(c, 3).value, e)


@given(st.integers(1, 5), SCALES, SEEDS)
@EXAMPLES
def test_steinhaus_quadrature_scales_exactly(n, e, seed):
    c = _coeffs(n, seed)
    value = steinhaus_expectation(c, q=16).value
    assert steinhaus_expectation(c * 2.0 ** e, q=16).value == math.ldexp(value, e)


@given(ROWS, st.integers(1, 4), SEEDS, st.data())
@EXAMPLES
def test_bounds_of_transpose_and_row_permutation_intersect(rows, cols, seed, data):
    # ||A|| = ||A^T|| = ||PA||: three certified enclosures of one number
    A = random_form("complex", rows, cols, seed=seed)
    order = data.draw(st.permutations(range(rows)))
    for form in (transpose(A), BilinearForm("complex", A.entries[list(order)])):
        for m in (3, 8, 16):
            a, b = complex_norm_bounds(A, m, refine=True), complex_norm_bounds(form, m, refine=True)
            assert max(a.lower, b.lower) <= min(a.upper, b.upper)


@given(st.integers(1, 4), st.integers(1, 4), SEEDS)
@EXAMPLES
def test_real_norm_is_below_the_complex_upper_end(rows, cols, seed):
    R = random_form("real", rows, cols, seed=seed)
    assert real_sup_norm(R) <= complex_norm_bounds(BilinearForm("complex", R.entries), 8).upper


@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([0, -600, 600]), SEEDS)
@EXAMPLES
def test_wide_and_tall_forms_walk_the_same_side(rows, cols, e, seed):
    # the grid runs over the smaller side of A and of A^T alike
    assume(rows != cols)
    A = _scaled(random_form("complex", rows, cols, seed=seed), e)
    for m in (3, 8, 16):
        assert complex_norm_discrete(transpose(A), m) == complex_norm_discrete(A, m)
        a, b = complex_norm_bounds(A, m, refine=True), complex_norm_bounds(transpose(A), m,
                                                                            refine=True)
        assert (a.discrete_norm, a.lower, a.upper) == (b.discrete_norm, b.lower, b.upper)


@given(SPLIT, SEEDS, st.data())
@EXAMPLES
def test_split_average_ignores_signs_before_the_last(n, seed, data):
    c = _real_coeffs(n, seed)
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n - 1, max_size=n - 1))
    assert rademacher_average(c * (signs + [1.0])).value == rademacher_average(c).value


@given(st.one_of(st.integers(1, 16), SPLIT), SEEDS, st.data())
@EXAMPLES
def test_rademacher_average_under_reordering_and_sign_flips(n, seed, data):
    c = _real_coeffs(n, seed)
    order = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    value = rademacher_average(c).value
    bound = REORDER_ULPS["split" if n > 16 else "walk"] * math.ulp(value)
    for moved in (c[list(order)], c * signs):
        assert abs(rademacher_average(moved).value - value) <= bound

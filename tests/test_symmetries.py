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
real form must not exceed the complex upper end of the same entries.

The example count comes from the loaded hypothesis profile (40 by
default, 400 under ``--hypothesis-profile=symmetry-deep``; see
``conftest.py``).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from litt43 import (BilinearForm, complex_norm_bounds, complex_norm_discrete, e_m_average,
                    rademacher_average, random_form, real_sup_norm, steinhaus_expectation,
                    transpose)

SCALES = st.sampled_from([-600, -30, 30, 600])
SEEDS = st.integers(0, 2 ** 32 - 1)
ROWS = st.one_of(st.just(1), st.integers(1, 4))  # one-row forms take their own ascent branch
EXAMPLES = settings(deadline=None)


def _scaled(A, e):
    return BilinearForm(A.field, A.entries * 2.0 ** e)


def _coeffs(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


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
    # the ascent stops on a relative gain, and takes a one-row angle as a
    # difference of phases, so no tolerance or product depends on the scale
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

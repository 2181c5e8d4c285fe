import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from litt43 import khinchin, opnorm
from litt43.exponents import _as_exponent
from litt43.errors import CapacityError, UndefinedRatioError
from litt43.khinchin import (CoefficientVector, blei_bound_check, ceiling, e_m_average,
                             khinchin_ratio, lr_norm, rademacher_average,
                             steinhaus_expectation)
from litt43.opnorm import r_m

SQRT2 = math.sqrt(2.0)
FOUR_OVER_PI = 4.0 / math.pi
EPS = np.finfo(float).eps


def naive_rademacher(coeffs):
    """Full 2^N sign enumeration, no symmetry tricks; the test oracle."""
    n = len(coeffs)
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        total += abs(sum(s * c for s, c in zip(signs, coeffs)))
    return total / 2 ** n


def exact_rademacher(coeffs):
    """The exact mean of |sum c_n eps_n| over all 2^N sign patterns of the
    float inputs, as a Fraction: each float is a dyadic rational, so the
    sums are integers over one power-of-two denominator.  The exact oracle;
    stdlib only."""
    ratios = [Fraction(float(x)) for x in coeffs]
    den = max(r.denominator for r in ratios)
    ints = [int(r * den) for r in ratios]
    total = sum(abs(sum(s * k for s, k in zip(signs, ints)))
                for signs in itertools.product((-1, 1), repeat=len(ints)))
    return Fraction(total, den * 2 ** len(ints))


def ulps_off(value, exact):
    """|value - exact| in units in the last place of the double nearest exact."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


# Stated error bounds of the two Rademacher paths, in ulps of the exact mean
# of the float inputs.  The meet in the middle rounds an exact integer
# combination once, so only a pattern whose sum lies within rounding of zero
# can move it past half an ulp (0.5 seen on 3,000 vectors with N <= 12:
# Gaussian, mixed scales 1e-8..1e8, sparse, integers plus 1e-15 noise).  The
# walk rounds every pattern sum and its block sums (3.0 seen on the same).
SPLIT_ULPS = 1
WALK_ULPS = 4


def _oracle_vectors(rng, n):
    """Gaussian, mixed-scale, sparse and near-integer vectors of length n."""
    return [rng.standard_normal(n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n),
            rng.standard_normal(n) * (rng.random(n) < 0.5),
            rng.integers(-3, 4, n) + rng.standard_normal(n) * 1e-15]


def trapezoid_circle_mean(a, rho, nodes=1 << 20):
    """E_t |a e^(it) + rho| by the trapezoid rule on a fine grid; the test
    oracle of the closed form (error about 1e-12 even at the kink a == rho)."""
    return float(np.abs(a * np.exp(2j * np.pi * np.arange(nodes) / nodes) + rho).mean())


def product_trapezoid(A, q):
    """The product trapezoid rule on every angle, Richardson over q and q/2
    levels, for each row of A: the quadrature from before the first angle was
    integrated in closed form, kept as an independent oracle."""
    coarse = khinchin._mean_abs(A, q // 2)
    fine = khinchin._mean_abs(A, q)
    return (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse)


def naive_quadrature(coeffs, q):
    """(value, error_bound) of the quadrature node by node: z_N pinned,
    z_1 by the closed form, every other angle over all q-th (and q/2-th)
    roots of unity; the test oracle of the walk and its two levels."""
    a, *middle, last = coeffs
    levels = []
    for nodes in (q, q // 2):
        roots = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        rhos = [abs(last + sum(c * w for c, w in zip(middle, ws)))
                for ws in itertools.product(roots, repeat=len(middle))]
        levels.append(float(khinchin._circle_means(abs(a), np.array(rhos)).mean()))
    fine, coarse = levels
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse)


def naive_e_m(coeffs, m):
    """Full M^N enumeration over all angle tuples; the test oracle."""
    n = len(coeffs)
    roots = [complex(math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
             for j in range(m)]
    total = 0.0
    for ws in itertools.product(roots, repeat=n):
        total += abs(sum(w * c for w, c in zip(ws, coeffs)))
    return total / m ** n


class TestCoefficientVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientVector("real", [])
        with pytest.raises(ValueError):
            CoefficientVector("real", [np.nan])
        vec = CoefficientVector("complex", [1, 1j])
        assert vec.n == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    @pytest.mark.parametrize("call", [
        rademacher_average,
        lambda c: lr_norm(c, 2),
        lambda c: steinhaus_expectation(c, q=8),
        lambda c: steinhaus_expectation(c, method="e_m_limit", schedule=[3, 4]),
        lambda c: e_m_average(c, 3),
        lambda c: khinchin_ratio(c, 2),
        lambda c: blei_bound_check(c, 3, 2),
    ], ids=["rademacher", "lr_norm", "steinhaus", "steinhaus_em_limit", "e_m", "ratio",
            "blei"])
    def test_plain_sequences_must_be_finite(self, call, bad):
        # a list and an array get the same check as a CoefficientVector
        for coeffs in ([1.0, bad], np.array([1.0, bad])):
            with pytest.raises(ValueError, match="coefficients must all be finite"):
                call(coeffs)


class TestLrNorm:
    @pytest.mark.parametrize("r", [1.0, 4.0 / 3.0, 2.0, 3.0])
    def test_long_vector_sums_exactly_rounded(self, r):
        # 20,000 entries are above the fsum threshold of mixed_norm, so the
        # sum is exactly rounded whatever the order; a pairwise one misses
        # the last bit here at every r
        c = np.random.default_rng(5).standard_normal(20_000)
        top = np.abs(c).max()
        oracle = top * np.power(math.fsum(np.power(np.abs(c) / top, r)), 1.0 / r)
        assert lr_norm(c, r) == oracle
        assert lr_norm(np.random.default_rng(6).permutation(c), r) == oracle


class TestRademacherAverage:
    def test_pair_of_ones(self):
        # patterns give |2|, 0, 0, |-2|; the average is 1
        assert rademacher_average([1.0, 1.0]).value == 1.0

    def test_three_four(self):
        # patterns give 7, 1, 1, 7; the average is 4
        assert rademacher_average([3.0, 4.0]).value == 4.0

    def test_single_coefficient(self):
        assert rademacher_average([-2.5]).value == 2.5
        assert rademacher_average([3 + 4j]).value == 5.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 5, 8, 11):
            c = rng.standard_normal(n)
            assert rademacher_average(c).value == pytest.approx(
                naive_rademacher(c), rel=1e-13)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert rademacher_average(z).value == pytest.approx(naive_rademacher(z), rel=1e-13)

    def test_cap(self):
        # real vectors meet in the middle up to N = 40; complex ones are
        # walked, 2^(N-1) patterns, and stop at N = 30 whatever the cap
        with pytest.raises(CapacityError, match="N = 40"):
            rademacher_average(np.ones(41))
        with pytest.raises(CapacityError, match="N = 30"):
            rademacher_average(np.ones(31, dtype=complex))
        with pytest.raises(CapacityError, match="N = 30"):
            rademacher_average(np.ones(31, dtype=complex), cap=35)
        with pytest.raises(CapacityError, match="N = 20"):
            rademacher_average(np.ones(21), cap=20)

    def test_gray_walk_over_high_bits_n23(self):
        # padding with zeros keeps the exact value analytic; a real vector
        # this long meets in the middle, with the nonzero coefficients on
        # either side of the split or pinned
        c = np.zeros(23)
        c[-2], c[-1] = 3.0, 4.0
        assert rademacher_average(c).value == 4.0
        c2 = np.zeros(23)
        c2[0], c2[-1] = 1.0, 1.0
        assert rademacher_average(c2).value == 1.0

    def test_gray_walk_over_high_bits_n23_complex(self):
        # a complex vector is walked: N - 1 > 20 exercises the tabulated-block
        # / high-digit split, and the nonzero columns land in the high group
        c = np.zeros(23, dtype=complex)
        c[-2], c[-1] = 3.0, 4.0j
        assert rademacher_average(c).value == 5.0
        c2 = np.zeros(23, dtype=complex)
        c2[0], c2[-1] = 1.0, 1.0
        assert rademacher_average(c2).value == 1.0

    def test_exact_result_metadata(self):
        result = rademacher_average([1.0, 2.0])
        assert result.kind == "rademacher" and result.method == "enumeration"
        assert result.error_bound == 0.0


class TestExactOracle:
    """Both Rademacher paths against the exact rational mean, for N <= 12;
    the meet in the middle through its private function, since the public
    path walks these lengths."""

    def test_split_and_walk_within_their_ulp_bounds(self):
        rng = np.random.default_rng(12)
        vectors = [rng.standard_normal(12) for _ in range(30)]
        for n in (3, 5, 8, 11, 12):
            vectors += _oracle_vectors(rng, n)
        for a in vectors:
            if not a.any():
                continue
            exact = exact_rademacher(a)
            assert ulps_off(khinchin._split_mean(a), exact) <= SPLIT_ULPS
            assert ulps_off(rademacher_average(a).value, exact) <= WALK_ULPS

    @pytest.mark.parametrize("a", [np.ones(12), np.arange(1.0, 13.0), np.zeros(7),
                                   np.array([3.0, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5]),
                                   np.array([0.5, 0.25, 0.75, 1.5, 0.0, 3.0, 0.125])])
    def test_split_is_correctly_rounded_on_exact_half_sums(self, a):
        # dyadic coefficients with few bits make every half sum exact, so no
        # pattern's sign is misread and the mean is rounded once
        assert khinchin._split_mean(a) == float(exact_rademacher(a))

    @pytest.mark.parametrize("n", range(17, 25))
    def test_split_agrees_with_the_walk_above_16(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        for a in _oracle_vectors(rng, n):
            split = rademacher_average(a).value
            monkeypatch.setattr(khinchin, "_WALK_MAX_N", n)
            walked = rademacher_average(a).value
            monkeypatch.undo()
            assert abs(split - walked) <= (SPLIT_ULPS + WALK_ULPS) * math.ulp(walked)


class TestKhinchinRatio:
    def test_sharp_pair_r2(self):
        assert khinchin_ratio([1.0, 1.0], 2) == pytest.approx(SQRT2, rel=1e-14)

    def test_sharp_pair_r_inf(self):
        assert khinchin_ratio([1.0, 1.0], math.inf) == 1.0

    def test_degenerate_second_coordinate(self):
        assert khinchin_ratio([1.0, 0.0], 2) == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedRatioError):
            khinchin_ratio([0.0, 0.0], 2)

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            khinchin_ratio([1.0, 1.0], 1.5)

    @pytest.mark.parametrize("r", [2.0, 2.5, 3.0, 4.0, math.inf])
    def test_ceiling_on_random_real_vectors(self, r):
        rng = np.random.default_rng(3)
        inv_r = 0.0 if math.isinf(r) else 1.0 / r
        for t in range(300):
            c = rng.standard_normal(int(rng.integers(1, 13)))
            assert khinchin_ratio(c, r) <= 2.0 ** inv_r + 1e-12


class TestEmAverage:
    def test_m2_equals_rademacher_exactly(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 4, 7, 12, 17, 20):
            c = rng.standard_normal(n)
            assert e_m_average(c, 2).value == rademacher_average(c).value

    def test_pair_of_ones_m4(self):
        # 16 terms: four aligned give 2, four opposed give 0, eight orthogonal sqrt(2)
        value = e_m_average([1.0, 1.0], 4).value
        assert value == pytest.approx((1 + SQRT2) / 2, rel=1e-14)
        assert value == pytest.approx(naive_e_m([1.0, 1.0], 4), rel=1e-14)

    def test_single_coefficient(self):
        for m in (2, 3, 8):
            assert e_m_average([3 - 4j], m).value == 5.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for m, n in [(3, 3), (4, 3), (5, 2), (8, 2), (6, 3)]:
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert e_m_average(c, m).value == pytest.approx(naive_e_m(c, m), rel=1e-12)

    def test_budget(self):
        with pytest.raises(CapacityError, match="budget"):
            e_m_average(np.ones(9), 16, budget=10**6)

    def test_homogeneity(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for m in (2, 4, 7):
            base = e_m_average(c, m).value
            assert e_m_average(3.5 * c, m).value == pytest.approx(3.5 * base, rel=1e-12)
        assert rademacher_average(2.0 * c.real).value == pytest.approx(
            2.0 * rademacher_average(c.real).value, rel=1e-12)


class TestHighDigitPath:
    """Averages with a table cap small enough to leave high digits."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_naive_oracle(self, m, monkeypatch):
        monkeypatch.setattr(khinchin, "_TABLE_CAP", m)
        rng = np.random.default_rng(70 + m)
        for n in (2, 4, 5):
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert e_m_average(c, m).value == pytest.approx(naive_e_m(c, m), rel=1e-12)
            if m == 2:
                assert rademacher_average(c.real).value == pytest.approx(
                    naive_rademacher(c.real), rel=1e-12)


def _vector_layouts(values):
    """The same vector contiguous, as a strided view and as a reversed view."""
    n = values.size
    strided = np.zeros(3 * n, dtype=values.dtype)
    strided[::3] = values
    reversed_ = np.zeros(2 * n, dtype=values.dtype)
    reversed_[::-2] = values
    return [values.copy(), strided[::3], reversed_[::-2]]


@st.composite
def _vector_stacks(draw):
    """B in 1..5 real or complex vectors of one length, each in its own layout."""
    n = draw(st.integers(1, 12))
    b = draw(st.integers(1, 5))
    # Gaussian entries make every last bit of a sum depend on its order
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = rng.standard_normal((b, n)) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        rows = rows + 1j * rng.standard_normal((b, n))
    rows[rng.random((b, n)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    members = [_vector_layouts(row)[draw(st.integers(0, 2))] for row in rows]
    stack = np.stack(members)
    return members, draw(st.sampled_from([stack, np.asfortranarray(stack)]))


@settings(max_examples=60, deadline=None)
@given(_vector_stacks(), st.sampled_from([1.0, 4.0 / 3.0, 2.0, 3.0, math.inf]),
       st.sampled_from([2, 3, 4, 5]), st.booleans(),
       st.sampled_from([1, opnorm._STACK_ELEMENTS]))
def test_batched_cores_match_public_functions(case, r, m, small_cap, bound):
    # each member of a stack gets the bits the public function gives it
    # alone; a small table cap sends the walk across high digits, and
    # bound 1 makes the walk split the stack into single members
    members, stack = case
    cap = m if small_cap else khinchin._TABLE_CAP
    agm_cap = m if small_cap else khinchin._AGM_TABLE_CAP
    with mock.patch.object(khinchin, "_TABLE_CAP", cap), \
            mock.patch.object(khinchin, "_AGM_TABLE_CAP", agm_cap), \
            mock.patch.object(opnorm, "_STACK_ELEMENTS", bound):
        n = stack.shape[-1]
        norms = khinchin._lr_norms(stack, _as_exponent(r))
        signs = khinchin._rademacher_means(stack.real)
        means = khinchin._mean_abs(stack, m) if n <= 6 else None
        quad = khinchin._quadrature(stack, 2 * m) if n <= 4 else None
        for i, member in enumerate(members):
            assert norms[i] == lr_norm(member, r)
            assert signs[i] == rademacher_average(member.real).value
            if means is not None:
                assert means[i] == e_m_average(member, m).value
            if quad is not None:
                result = steinhaus_expectation(member, q=2 * m)
                assert (quad[0][i], quad[1][i]) == (result.value, result.error_bound)


@pytest.mark.parametrize("writable", [False, True])
def test_walk_leaves_one_coefficient_unchanged(writable):
    # N = 1 leaves the walk no free column, so its table is a view of the
    # caller's stack, which the walk's in-place moduli must not reach
    stack = np.array([[-2.0], [-0.5]])
    stack.setflags(write=writable)
    assert np.array_equal(khinchin._rademacher_means(stack), [2.0, 0.5])
    assert np.array_equal(khinchin._mean_abs(stack, 3), [2.0, 0.5])
    assert np.array_equal(stack, [[-2.0], [-0.5]])
    c = CoefficientVector("real", [-3.0])
    assert rademacher_average(c).value == 3.0
    assert c.values[0] == -3.0


@st.composite
def _exact_vectors(draw):
    """One vector held exactly in single precision, as every layout of a
    single- and a double-precision array, as a list and (when real) as complex."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = rng.standard_normal(n)
    real = draw(st.booleans())
    if not real:
        values = values + 1j * rng.standard_normal(n)
    single = values.astype(np.float32 if real else np.complex64)
    double = single.astype(np.float64 if real else np.complex128)
    return (_vector_layouts(single) + _vector_layouts(double)
            + [double.tolist(), double.astype(np.complex128)])


@settings(max_examples=60, deadline=None)
@given(_exact_vectors(), st.sampled_from([2, 3, 4, 6]))
def test_averages_ignore_layout_and_dtype(variants, m):
    # the bits of every average depend on the numbers alone
    results = set()
    for c in variants:
        quad = steinhaus_expectation(c, q=2 * m)
        limit = steinhaus_expectation(c, method="e_m_limit", schedule=[m, 2 * m])
        results.add((e_m_average(c, m).value, quad.value, quad.error_bound,
                     limit.value, limit.error_bound))
    assert len(results) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from([2, 3, 4, 6, 8, 12]), st.integers(0, 2**32))
def test_e_m_average_is_rotation_invariant(n, m, seed):
    # the walk pins one multiplier to 1, which is exact only because the
    # T_M average ignores a rotation of any coordinate by an M-th root
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rotated = c * np.exp(2j * np.pi * rng.integers(0, m, size=n) / m)
    before = e_m_average(c, m).value
    assert e_m_average(rotated, m).value == pytest.approx(before, rel=1e-12)


class TestSteinhausExpectation:
    def test_pair_of_ones_closed_form(self):
        # N = 2 leaves no angle to the trapezoid rule: exact, bound 0
        result = steinhaus_expectation([1.0, 1.0], method="quadrature", q=512)
        assert result.value == pytest.approx(FOUR_OVER_PI, rel=4 * EPS)
        assert result.error_bound == 0.0

    def test_single_coefficient(self):
        assert steinhaus_expectation([3 + 4j], q=64).value == 5.0

    def test_em_limit_converges(self):
        result = steinhaus_expectation([1.0, 1.0], method="e_m_limit",
                                       schedule=[64, 128, 256, 512])
        assert result.value == pytest.approx(FOUR_OVER_PI, abs=1e-4)
        assert result.m == 512

    def test_cross_method_consistency_three_ones(self):
        # independent evaluation routes agree (measured agreement ~4e-8)
        quad = steinhaus_expectation([1.0, 1.0, 1.0], method="quadrature", q=256)
        em = steinhaus_expectation([1.0, 1.0, 1.0], method="e_m_limit",
                                   schedule=[64, 128, 256, 512])
        assert quad.value == pytest.approx(em.value, abs=1e-6)

    def test_quadrature_error_bound_is_conservative_here(self):
        # N = 2 is exact: the bound 0 holds, the tie a == rho giving 4/pi itself
        result = steinhaus_expectation([1.0, 1.0], method="quadrature", q=256)
        assert result.error_bound == 0.0
        assert abs(result.value - FOUR_OVER_PI) <= result.error_bound

    def test_two_coefficients_are_exact_at_any_q(self):
        # near equal moduli, where the product rule's kink cost the most
        for c in ([1.0, 1.0], [1.0, 1.001j], [0.3 - 0.4j, 0.5]):
            results = {steinhaus_expectation(c, q=q) for q in (4, 256)}
            assert len(results) == 1
            (result,) = results
            a, rho = sorted(abs(complex(z)) for z in c)
            assert result.error_bound == 0.0
            assert result.value == pytest.approx(trapezoid_circle_mean(a, rho), rel=1e-11)

    def test_odd_q_rejected(self):
        with pytest.raises(ValueError):
            steinhaus_expectation([1.0, 1.0], q=255)

    def test_dimension_cap(self):
        with pytest.raises(CapacityError, match="N <= 8"):
            steinhaus_expectation(np.ones(9), q=16)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            steinhaus_expectation([1.0, 1.0], method="e_m_limit", schedule=[64])
        with pytest.raises(ValueError):
            steinhaus_expectation([1.0, 1.0], method="e_m_limit", schedule=[64, 64])

    def test_homogeneity(self):
        rng = np.random.default_rng(15)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = steinhaus_expectation(c, q=64).value
        assert steinhaus_expectation(0.25 * c, q=64).value == pytest.approx(
            0.25 * base, rel=1e-12)

    def test_sharp_ceiling_on_random_complex_vectors(self):
        rng = np.random.default_rng(17)
        ceiling = 2.0 / math.sqrt(math.pi)
        for t in range(25):
            n = int(rng.integers(1, 5))
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ratio = lr_norm(c, 2) / steinhaus_expectation(c, q=128).value
            assert ratio <= ceiling + 1e-6

    def test_convergence_monitoring_reported_not_asserted(self, capsys):
        # the gap |E_M - E| is proved to vanish, not to shrink monotonically;
        # non-monotone steps are printed for inspection but do not fail
        rng = np.random.default_rng(19)
        for c in ([1.0, 1.0], list(rng.standard_normal(3))):
            reference = steinhaus_expectation(c, method="quadrature", q=1024).value
            gaps = [abs(e_m_average(c, 2 ** k).value - reference) for k in range(4, 9)]
            for prev, nxt in zip(gaps, gaps[1:]):
                if nxt > prev:
                    print(f"non-monotone convergence step for {c}: {prev} -> {nxt}")
            assert gaps[-1] <= 1e-3  # the limit itself must be approached


class TestClosedForm:
    """khinchin._circle_means, E_t |a e^(it) + rho| by the AGM."""

    @pytest.mark.parametrize("a, rho", [
        (1.0, 1.0),                                 # a tie: E(1) = 1
        (1.0, np.nextafter(1.0, 2.0)),              # one ulp apart
        (0.75, np.nextafter(0.75, 0.0)),            # the smallest relative gap, 2^-54
        (1.0, 1.001), (0.3, 0.7), (1.0, 1e-3),
        (0.0, 0.6), (0.6, 0.0),
    ])
    def test_matches_fine_trapezoid(self, a, rho):
        means = khinchin._circle_means(np.array([a]), np.array([rho]))
        assert means[0] == pytest.approx(trapezoid_circle_mean(a, rho), rel=1e-11)

    def test_tie_and_zero(self):
        means = khinchin._circle_means(np.array([1.0, 0.0, 2.5]), np.array([1.0, 0.0, 2.5]))
        assert means[0] == pytest.approx(FOUR_OVER_PI, rel=2 * EPS)
        assert means[1] == 0.0
        assert means[2] == pytest.approx(5.0 * 2.0 / math.pi, rel=2 * EPS)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_extreme_scales(self, n, scale):
        # the squares of 1e+-200 leave double range; the unit rows keep them in
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        base = steinhaus_expectation(c, q=16)
        scaled = steinhaus_expectation(scale * c, q=16)
        assert scaled.value == pytest.approx(scale * base.value, rel=1e-13)
        assert scaled.error_bound == pytest.approx(scale * base.error_bound, rel=1e-6,
                                                   abs=1e-13 * scaled.value)


class TestRangeEdges:
    """Inputs near the top and the bottom of the double range."""

    def test_sign_averages_of_huge_entries(self):
        # unscaled, the pattern sum 1e308 + 1e308 overflows
        assert rademacher_average([1e308, 1e308]).value == 1e308
        assert e_m_average([1e308, 1e308], 2).value == 1e308
        # |1 + 1| + |1 + w| + |1 + w^2| = 4 over T_3
        assert e_m_average([1e308, 1e308], 3).value == pytest.approx(4 / 3 * 1e308, rel=4 * EPS)

    def test_average_beyond_the_double_range_is_refused(self):
        # (4.5e308 + 3 * 1.5e308) / 4 patterns with the last sign pinned
        with pytest.raises(ValueError, match="beyond the double range"):
            rademacher_average([1.5e308] * 3)

    def test_scaled_row_leaves_its_stack_neighbours_bits(self):
        ordinary = np.random.default_rng(32).standard_normal((2, 7))
        stack = np.concatenate([[[1e307] * 7], ordinary])  # 1e307 < 2^1020
        means = khinchin._rademacher_means(stack)
        small = khinchin._rademacher_means(np.ldexp(stack[:1], -1020))
        assert means[0] == math.ldexp(small[0], 1020)
        assert means[1:].tobytes() == khinchin._rademacher_means(ordinary).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_subnormal_steinhaus_rows(self, n):
        # 1 / top overflowed at a subnormal top, and the rows became NaN
        tiny = steinhaus_expectation([1e-320] * n, q=8)
        unit = steinhaus_expectation([1.0] * n, q=8)
        assert tiny.value == pytest.approx(1e-320 * unit.value, rel=2e-3)
        assert math.isfinite(tiny.error_bound)

    def test_subnormal_row_leaves_its_stack_neighbours_bits(self):
        rng = np.random.default_rng(33)
        ordinary = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        values, bounds = khinchin._quadrature(np.concatenate([[[1e-320] * 4], ordinary]), 8)
        alone = khinchin._quadrature(ordinary, 8)
        assert values[1:].tobytes() == alone[0].tobytes()
        assert bounds[1:].tobytes() == alone[1].tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_row_beside_a_huge_row(self):
        # only the subnormal row is scaled by 2^600: 1e300 * 2^600 would overflow
        stack = np.array([[1e-320] * 3, [1e300] * 3])
        values, bounds = khinchin._quadrature(stack, 8)
        assert values[1].tobytes() == khinchin._quadrature(stack[1:], 8)[0].tobytes()
        assert np.isfinite(values).all() and np.isfinite(bounds).all()


class TestQuadratureOracles:
    @pytest.mark.parametrize("n, q", [(3, 4), (3, 16), (4, 8), (4, 6), (5, 4)])
    def test_matches_node_by_node_sum(self, n, q):
        # the fine and the coarse level of one walk are the two levels of
        # the rule; a table cap of q also takes the high-digit path
        rng = np.random.default_rng([n, q])
        A = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for cap in (khinchin._AGM_TABLE_CAP, q):
            with mock.patch.object(khinchin, "_AGM_TABLE_CAP", cap):
                values, bounds = khinchin._quadrature(A, q)
            for row, value, bound in zip(A, values, bounds):
                want_value, want_bound = naive_quadrature(row, q)
                assert value == pytest.approx(want_value, rel=1e-13)
                assert bound == pytest.approx(want_bound, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("n, q", [(3, 64), (4, 32), (5, 16)])
    def test_agrees_with_product_trapezoid(self, n, q):
        # both values estimate the same torus integral; the product rule at
        # 2q nodes per angle must agree within the sum of the two bounds
        rng = np.random.default_rng(n)
        A = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        values, bounds = khinchin._quadrature(A, q)
        oracle, oracle_bounds = product_trapezoid(A, 2 * q)
        assert np.all(np.abs(values - oracle) <= bounds + oracle_bounds + 1e-14 * oracle)

    @pytest.mark.parametrize("n, rows", [(4, 3), (5, 25), (6, 3)])
    def test_stack_splits_at_the_price_of_its_nodes(self, monkeypatch, n, rows):
        # a member walks q^(N-2) nodes of _AGM_NODE_COST table elements each,
        # so a stack splits into parts of 170, 10 and 1 members at Q = 16
        q = 16
        part = max(1, opnorm._STACK_ELEMENTS // (q ** (n - 2) * khinchin._AGM_NODE_COST))
        batches = []
        partial_sums = opnorm._partial_sums

        def spy(first, cols, points, *rest):
            batches.append(first.shape[0])
            return partial_sums(first, cols, points, *rest)

        rng = np.random.default_rng(n)
        A = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        monkeypatch.setattr(opnorm, "_partial_sums", spy)
        values, bounds = khinchin._quadrature(A, q)
        assert part == {4: 170, 5: 10, 6: 1}[n]
        assert batches == [min(part, rows - i) for i in range(0, rows, part)]
        for row, value, bound in zip(A, values, bounds):
            alone = khinchin._quadrature(row[None], q)
            assert (value, bound) == (alone[0][0], alone[1][0])

    def test_budget_counts_walked_nodes(self):
        # q^(N-2) terms: 16^4 at N = 6
        assert steinhaus_expectation(np.ones(6), q=16, budget=16 ** 4).error_bound >= 0.0
        with pytest.raises(CapacityError, match="65536 terms"):
            steinhaus_expectation(np.ones(6), q=16, budget=16 ** 4 - 1)


class TestCeiling:
    def test_formulas(self):
        assert ceiling("rademacher", 2)[0] == SQRT2
        assert ceiling("e_m", 3.0, 2)[0] == 2.0 ** (1 / 3)
        assert ceiling("e_m", 2, 8)[0] == FOUR_OVER_PI ** 0.5 / r_m(8)
        assert ceiling("steinhaus", 2)[0] == 2.0 / math.sqrt(math.pi)
        assert ceiling("steinhaus", math.inf)[0] == 1.0
        value, provenance = ceiling("steinhaus", 4)
        assert value == FOUR_OVER_PI ** 0.25 and provenance.startswith("exploratory")

    def test_rejects_r_below_two_and_unknown_model(self):
        with pytest.raises(ValueError):
            ceiling("steinhaus", 1.5)
        with pytest.raises(ValueError):
            ceiling("gaussian", 2)


class TestBleiBound:
    def test_m2_r2_attained_by_ones(self):
        report = blei_bound_check([1.0, 1.0], 2, 2)
        assert report.ratio == pytest.approx(SQRT2, rel=1e-14)
        assert report.ceiling == pytest.approx(SQRT2, rel=1e-15)
        assert not report.violation

    def test_m4_r2_values(self):
        report = blei_bound_check([1.0, 1.0], 4, 2)
        # ratio = sqrt(2) / ((1 + sqrt 2)/2) = 4 - 2 sqrt 2
        assert report.ratio == pytest.approx(4 - 2 * SQRT2, rel=1e-13)
        assert report.ceiling == pytest.approx(FOUR_OVER_PI ** 0.5 / r_m(4), rel=1e-13)
        assert report.ratio <= report.ceiling
        assert report.m == 4 and report.witness == (1 + 0j, 1 + 0j)

    def test_large_m_approaches_steinhaus_ratio(self):
        # closed form for the T_M average of (1, 1): (2/M) * cot(pi / (2 M))
        m = 2048
        exact_avg = (2.0 / m) / math.tan(math.pi / (2 * m))
        report = blei_bound_check([1.0, 1.0], m, 2)
        assert report.ratio == pytest.approx(SQRT2 / exact_avg, rel=1e-12)
        assert report.ratio == pytest.approx(math.pi * SQRT2 / 4.0, abs=1e-6)
        assert report.ratio <= 2.0 / math.sqrt(math.pi)
        assert not report.violation

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedRatioError):
            blei_bound_check([0.0], 4, 2)

    def test_random_vectors_never_violate(self):
        rng = np.random.default_rng(23)
        for m in (2, 3, 4, 8, 16):
            for t in range(40):
                n = int(rng.integers(1, 6))
                c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for r in (2.0, 3.0, math.inf):
                    assert not blei_bound_check(c, m, r).violation

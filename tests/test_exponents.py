import math

import pytest
from hypothesis import given, settings, strategies as st

from litt43.errors import InadmissibleExponentsError, InputParseError
from litt43.exponents import (INFINITY, Exponent, ExponentPair, RegionLabel,
                              admissible, classify_region,
                              complex_constant_bounds, conjugate, real_constant)

SQRT2 = math.sqrt(2.0)


def pair(a, b):
    return ExponentPair.of(a, b)


class TestExponent:
    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            Exponent(0.5)
        with pytest.raises(ValueError):
            Exponent(-3.0)
        with pytest.raises(ValueError):
            Exponent(float("nan"))

    def test_reciprocal_conventions(self):
        assert INFINITY.reciprocal == 0.0
        assert Exponent(4.0).reciprocal == 0.25
        assert Exponent(1.0).reciprocal == 1.0

    @pytest.mark.parametrize("text,value", [
        ("inf", math.inf), ("4/3", 4.0 / 3.0), ("2", 2.0), ("2.5", 2.5),
    ])
    def test_parse(self, text, value):
        assert Exponent.parse(text).value == value

    @pytest.mark.parametrize("text,error", [
        ("abc", InputParseError), ("1/0", InputParseError), ("", InputParseError),
        ("0.5", InadmissibleExponentsError), ("-inf", InadmissibleExponentsError),
    ])
    def test_parse_errors_are_typed(self, text, error):
        with pytest.raises(error):
            Exponent.parse(text)


class TestConjugate:
    def test_fixed_point_two(self):
        assert conjugate(2.0).value == 2.0

    def test_infinity_maps_to_one(self):
        assert conjugate(INFINITY).value == 1.0
        assert conjugate(1.0).is_inf

    def test_four_maps_to_four_thirds(self):
        c = conjugate(4.0)
        assert c.value == 4.0 / 3.0
        # reciprocals sum to 1 exactly at this pair
        assert 0.25 + c.reciprocal == 1.0

    def test_involution_on_grid(self):
        # 10^3 exponents spread over [1, 50]
        for i in range(1000):
            p = 1.0 + 49.0 * i / 999.0
            q = conjugate(conjugate(p)).value
            assert q == pytest.approx(p, rel=1e-13)

    def test_order_reversing_on_grid(self):
        values = [1.0 + 49.0 * i / 999.0 for i in range(1000)]
        conjugates = [conjugate(p).value for p in values]
        for lo, hi in zip(conjugates[1:], conjugates):
            assert lo <= hi

    @given(st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_identity_property(self, p):
        c = conjugate(p)
        assert (1.0 / p) + c.reciprocal == pytest.approx(1.0, abs=1e-12)


class TestAdmissible:
    def test_littlewood_point(self):
        assert admissible(pair("4/3", "4/3"))

    def test_one_one_excluded(self):
        assert not admissible(pair(1, 1))

    def test_hyperbola_endpoints(self):
        assert admissible(pair(1, 2))
        assert admissible(pair(2, 1))

    def test_infinite_exponents_allowed(self):
        assert admissible(pair(math.inf, 1))
        assert admissible(pair(math.inf, math.inf))

    def test_boundary_is_closed(self):
        # reciprocals of the float 4/3 are exactly 0.75 each
        assert pair("4/3", "4/3").deficiency == 0.5


class TestClassifyRegion:
    @pytest.mark.parametrize("a,b,label", [
        ("4/3", "4/3", "RI"),
        (3, 3, "RII"),
        (1.5, 2.5, "RIV"),
        (1, 1, "R0"),
        (4, 1.2, "RIII"),
        (math.inf, 1, "RII"),     # a* = 1, so b >= a* always
        (1, 2, "RIV"),            # boundary of RIV at b = 2 = a*... tie-broken
        (2, 2, "RII"),            # x + y = 1 boundary, priority RII
    ])
    def test_examples(self, a, b, label):
        assert classify_region(pair(a, b)) == RegionLabel(label)

    def test_partition_of_admissible_set(self):
        for i in range(40):
            for j in range(40):
                x, y = i / 39.0, j / 39.0
                p = pair(math.inf if x == 0 else 1 / x, math.inf if y == 0 else 1 / y)
                label = classify_region(p)
                if x + y > 1.5:
                    assert label == RegionLabel.R0
                else:
                    assert label != RegionLabel.R0

    def test_constant_continuous_across_boundaries(self):
        # on the RII boundary both formula branches (1 vs 2^(x+y-1)) agree
        for x in [0.0, 0.25, 0.5, 0.75, 1.0]:
            y = 1.0 - x
            p = pair(math.inf if x == 0 else 1 / x, math.inf if y == 0 else 1 / y)
            d = p.deficiency
            assert abs(d) < 1e-15
            assert abs(2.0 ** max(0.0, d) - 1.0) <= 1e-15


class TestRealConstant:
    def test_littlewood_value(self):
        rep = real_constant(pair("4/3", "4/3"))
        assert rep.exact == pytest.approx(SQRT2, rel=1e-15)
        assert rep.lower == rep.exact == rep.upper

    def test_two_two_is_one(self):
        assert real_constant(pair(2, 2)).exact == 1.0

    def test_one_two_is_sqrt2(self):
        assert real_constant(pair(1, 2)).exact == pytest.approx(SQRT2, rel=1e-15)

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleExponentsError):
            real_constant(pair(1, 1))

    def test_symmetric(self):
        for a, b in [(1, 2), ("4/3", 3), (2, 5), (1.25, 3.5)]:
            assert real_constant(pair(a, b)).exact == real_constant(pair(b, a)).exact

    def test_one_exactly_on_rii_and_larger_elsewhere(self):
        for i in range(30):
            for j in range(30):
                x, y = i / 29.0, j / 29.0
                if x + y > 1.5:
                    continue
                p = pair(math.inf if x == 0 else 1 / x, math.inf if y == 0 else 1 / y)
                value = real_constant(p).exact
                if classify_region(p) == RegionLabel.RII:
                    assert value == 1.0
                elif x + y > 1.0 + 1e-12:
                    assert value > 1.0


class TestComplexConstantBounds:
    def test_one_two_exact(self):
        rep = complex_constant_bounds(pair(1, 2))
        assert rep.exact == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
        assert rep.exact == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_three_three_exact_one(self):
        assert complex_constant_bounds(pair(3, 3)).exact == 1.0

    def test_littlewood_interval(self):
        rep = complex_constant_bounds(pair("4/3", "4/3"))
        assert rep.exact is None
        assert rep.lower == 1.0
        assert rep.upper == pytest.approx((4.0 / math.pi) ** 0.5, rel=1e-15)

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleExponentsError):
            complex_constant_bounds(pair(1, "1.3"))

    def test_complex_ceiling_below_real_constant(self):
        # (4/pi)^d <= 2^d for every nonnegative deficiency on the grid
        for i in range(30):
            for j in range(30):
                x, y = i / 29.0, j / 29.0
                if x + y > 1.5:
                    continue
                p = pair(math.inf if x == 0 else 1 / x, math.inf if y == 0 else 1 / y)
                assert complex_constant_bounds(p).upper <= real_constant(p).exact + 1e-15

    def test_unknown_region_is_interval_not_point(self):
        # inside the deficiency > 0 region (away from the known sharp points)
        for a, b in [(1.5, 1.5), (1, 2.5), (1.2, 2.5)]:
            rep = complex_constant_bounds(pair(a, b))
            assert rep.exact is None and rep.lower < rep.upper

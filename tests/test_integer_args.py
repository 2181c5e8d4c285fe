"""Orders M, node counts Q, search counts and seeds all go through one validator.

A non-integer (4.0 and True included), a string, None or a value below the
floor raises a ValueError that names the parameter and the value as given,
never a TypeError or a result at a truncated order; numpy integers give the
int result bit for bit.
"""

import re

import numpy as np
import pytest

from litt43 import (ExponentPair, SearchConfig, blei_bound_check, ceiling,
                    complex_norm_bounds, complex_norm_discrete, e_m_average,
                    maximize_khinchin_ratio, maximize_ratio, r_m, random_form,
                    steinhaus_expectation)
from litt43.exponents import _as_integer

PAIR = ExponentPair.of("4/3", "4/3")
FORM = random_form("complex", 2, 3, seed=5)
COEFFS = [1.0, 0.5 + 0.25j, -0.75]
CFG = SearchConfig(restarts=1, steps=3, seed=2, dims=(2, 2))

BAD = (2.5, 4.0, True, "3", 0, -1, None)

# (entry, the name its message gives, call with the value, the bad values it takes)
ENTRIES = [
    ("complex_norm_discrete", "M", lambda v: complex_norm_discrete(FORM, v), BAD),
    ("complex_norm_bounds", "M", lambda v: complex_norm_bounds(FORM, v), BAD),
    ("r_m", "M", r_m, BAD),
    ("e_m_average", "M", lambda v: e_m_average(COEFFS, v), BAD),
    ("steinhaus_expectation q", "Q", lambda v: steinhaus_expectation(COEFFS, q=v), BAD),
    ("steinhaus_expectation schedule", "schedule[1]",
     lambda v: steinhaus_expectation(COEFFS, method="e_m_limit", schedule=[2, v]), BAD),
    ("blei_bound_check", "M", lambda v: blei_bound_check(COEFFS, v, 2), BAD),
    ("ceiling", "M", lambda v: ceiling("e_m", 2, v), BAD),
    ("random_form rows", "rows", lambda v: random_form("real", v, 2), BAD),
    ("random_form cols", "cols", lambda v: random_form("real", 2, v), BAD),
    # seed = 0 is valid
    ("random_form seed", "seed", lambda v: random_form("real", 2, 2, seed=v),
     tuple(v for v in BAD if v != 0)),
    ("SearchConfig restarts", "restarts", lambda v: SearchConfig(restarts=v), BAD),
    # steps = 0 and seed = 0 are valid
    ("SearchConfig steps", "steps", lambda v: SearchConfig(steps=v),
     tuple(v for v in BAD if v != 0)),
    ("SearchConfig seed", "seed", lambda v: SearchConfig(seed=v),
     tuple(v for v in BAD if v != 0)),
    ("SearchConfig dims", "dims[0]", lambda v: SearchConfig(dims=(v, 2)), BAD),
    ("maximize_ratio m", "field 'params.m'",
     lambda v: maximize_ratio("complex", PAIR, CFG, m=v), BAD),
    ("maximize_khinchin_ratio n", "field 'params.n'",
     lambda v: maximize_khinchin_ratio("rademacher", 2, v, CFG), BAD),
    ("maximize_khinchin_ratio m", "field 'params.m'",
     lambda v: maximize_khinchin_ratio("e_m", 2, 3, CFG, m=v), BAD),
    ("maximize_khinchin_ratio q", "field 'params.q'",
     lambda v: maximize_khinchin_ratio("steinhaus", 2, 3, CFG, q=v), BAD),
    ("maximize_ratio workers", "workers",
     lambda v: maximize_ratio("real", PAIR, CFG, workers=v), BAD),
    ("maximize_khinchin_ratio workers", "workers",
     lambda v: maximize_khinchin_ratio("rademacher", 2, 3, CFG, workers=v), BAD),
]

CASES = [pytest.param(name, call, value, id=f"{entry}-{value!r}")
         for entry, name, call, values in ENTRIES for value in values]


@pytest.mark.parametrize("name, call, value", CASES)
def test_bad_order_or_count_is_refused_by_name(name, call, value):
    # the message names the parameter and the value as given, not a truncation
    expected = rf"{re.escape(name)} must be an .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=expected):
        call(value)


@pytest.mark.parametrize("value", [np.bool_(True), np.float64(8.0), 8.0 + 0j, [8]])
def test_validator_refuses_numpy_bools_floats_and_containers(value):
    with pytest.raises(ValueError, match="M must be an integer >= 3"):
        _as_integer(value, "M", 3)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16])
def test_validator_returns_a_python_int(dtype):
    value = _as_integer(dtype(8), "Q", 4, even=True)
    assert type(value) is int and value == 8


def test_odd_node_count_is_refused():
    with pytest.raises(ValueError, match="Q must be an even integer >= 4, got 7"):
        steinhaus_expectation(COEFFS, q=7)


def test_e_m_ceiling_needs_m():
    with pytest.raises(ValueError, match="M must be an integer >= 2, got None"):
        ceiling("e_m", 2)


def _bits(x):
    return float(x).hex()


class TestNumpyIntegersGiveTheIntResult:
    def test_opnorm(self):
        assert _bits(complex_norm_discrete(FORM, np.int64(7))) == _bits(
            complex_norm_discrete(FORM, 7))
        assert _bits(r_m(np.int64(7))) == _bits(r_m(7))
        b64 = complex_norm_bounds(FORM, np.int64(6), refine=True)
        b = complex_norm_bounds(FORM, 6, refine=True)
        assert b64 == b and type(b64.m) is int

    def test_khinchin(self):
        a64, a = e_m_average(COEFFS, np.int64(5)), e_m_average(COEFFS, 5)
        assert a64 == a and type(a64.m) is int
        assert steinhaus_expectation(COEFFS, q=np.int64(16)) == steinhaus_expectation(
            COEFFS, q=16)
        limit = steinhaus_expectation(COEFFS, method="e_m_limit",
                                      schedule=np.array([4, 8, 16]))
        assert limit == steinhaus_expectation(COEFFS, method="e_m_limit", schedule=[4, 8, 16])
        assert type(limit.m) is int
        assert blei_bound_check(COEFFS, np.int64(3), 2) == blei_bound_check(COEFFS, 3, 2)
        assert ceiling("e_m", 3, np.int64(2)) == ceiling("e_m", 3, 2)
        assert ceiling("e_m", 3, np.int64(5)) == ceiling("e_m", 3, 5)

    def test_forms_and_search(self):
        assert np.array_equal(random_form("complex", np.int64(3), np.int32(2), seed=4).entries,
                              random_form("complex", 3, 2, seed=4).entries)
        cfg = SearchConfig(restarts=np.int64(2), steps=np.int64(20), seed=np.int64(3),
                           dims=(np.int64(2), np.int64(2)))
        assert cfg == SearchConfig(restarts=2, steps=20, seed=3, dims=(2, 2))
        assert all(type(v) is int for v in (cfg.restarts, cfg.steps, cfg.seed) + cfg.dims)
        runs = [
            lambda m, n, q: maximize_ratio("complex", PAIR, cfg, m=m),
            lambda m, n, q: maximize_khinchin_ratio("e_m", 2, n, cfg, m=m),
            lambda m, n, q: maximize_khinchin_ratio("steinhaus", 2, n, cfg, q=q),
        ]
        for run in runs:
            r64, r = run(np.int64(4), np.int64(3), np.int64(8)), run(4, 3, 8)
            assert _bits(r64.best_ratio) == _bits(r.best_ratio)
            assert r64.improved_at == r.improved_at and r64.params == r.params

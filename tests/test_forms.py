import math

import numpy as np
import pytest

from litt43.errors import SerializationError
from litt43.exponents import ExponentPair, conjugate
from litt43.forms import (BilinearForm, _mixed_norms, form_from_json, form_to_json,
                          load_form, mixed_norm, random_form, save_form, transpose,
                          witness_a0)


def pair(a, b):
    return ExponentPair.of(a, b)


def naive_mixed_norm(entries, a, b):
    """Direct two-level arithmetic, no vectorization; the test oracle."""
    rows = []
    for row in entries:
        mags = [abs(z) for z in row]
        rows.append(max(mags) if math.isinf(a) else sum(m ** a for m in mags) ** (1 / a))
    return max(rows) if math.isinf(b) else sum(v ** b for v in rows) ** (1 / b)


class TestBilinearForm:
    def test_shape_and_field_validation(self):
        with pytest.raises(ValueError):
            BilinearForm("real", np.zeros((0, 3)))
        with pytest.raises(ValueError):
            BilinearForm("quaternion", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            BilinearForm("real", [[np.inf, 1.0]])

    def test_entries_are_immutable(self):
        form = witness_a0("real")
        with pytest.raises(ValueError):
            form.entries[0, 0] = 7.0

    def test_real_tag_forces_real_dtype(self):
        form = BilinearForm("real", [[1, 2], [3, 4]])
        assert form.entries.dtype == np.float64
        assert BilinearForm("complex", [[1, 2]]).entries.dtype == np.complex128


class TestMixedNorm:
    def test_witness_at_littlewood_exponents(self):
        # rows (1,1): inner norm 2^(3/4); outer over two equal rows gives 2^(3/2)
        value = mixed_norm(witness_a0("real"), pair("4/3", "4/3")).value
        assert value == pytest.approx(2.0 ** 1.5, rel=1e-12)
        assert value == pytest.approx(
            naive_mixed_norm(witness_a0("real").entries, 4 / 3, 4 / 3), rel=1e-14)

    def test_identity_frobenius(self):
        form = BilinearForm("real", np.eye(2))
        assert mixed_norm(form, pair(2, 2)).value == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_witness_sup_inner_sum_outer(self):
        assert mixed_norm(witness_a0("real"), pair(math.inf, 1)).value == 2.0

    def test_zero_matrix(self):
        form = BilinearForm("real", np.zeros((3, 4)))
        assert mixed_norm(form, pair(1, 1)).value == 0.0
        assert mixed_norm(form, pair(math.inf, math.inf)).value == 0.0

    @pytest.mark.parametrize("a,b", [(1, 1), (4 / 3, 4 / 3), (2, 3), (math.inf, 2),
                                     (3, math.inf), (math.inf, math.inf), (1, math.inf)])
    def test_matches_naive_oracle(self, a, b):
        rng = np.random.default_rng(7)
        for _ in range(5):
            entries = rng.standard_normal((4, 6))
            form = BilinearForm("real", entries)
            assert mixed_norm(form, pair(a, b)).value == pytest.approx(
                naive_mixed_norm(entries, a, b), rel=1e-13)
        centries = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        cform = BilinearForm("complex", centries)
        assert mixed_norm(cform, pair(a, b)).value == pytest.approx(
            naive_mixed_norm(centries, a, b), rel=1e-13)

    @pytest.mark.parametrize("a,b", [(1, 1), (4 / 3, 4 / 3), (math.inf, 3),
                                     (2, math.inf)])
    def test_large_form_sums_exactly_rounded(self, a, b):
        # 120 x 100 is above the threshold where every power sum is an fsum
        rng = np.random.default_rng(8)
        entries = rng.standard_normal((120, 100))
        top = float(np.abs(entries).max())
        rows = [max(abs(x) / top for x in row) if math.isinf(a)
                else math.fsum((abs(x) / top) ** a for x in row) ** (1 / a)
                for row in entries]
        oracle = top * (max(rows) if math.isinf(b)
                        else math.fsum(v ** b for v in rows) ** (1 / b))
        value = mixed_norm(BilinearForm("real", entries), pair(a, b)).value
        # numpy's and Python's powers may differ by an ulp per call
        assert value == pytest.approx(oracle, rel=1e-14)
        # exactly rounded sums do not depend on the order of rows or columns
        shuffled = rng.permutation(rng.permutation(entries), axis=1)
        assert mixed_norm(BilinearForm("real", shuffled), pair(a, b)).value == value

    def test_scaling_exact(self):
        rng = np.random.default_rng(11)
        entries = rng.standard_normal((5, 7))
        base = mixed_norm(BilinearForm("real", entries), pair(1.7, 2.3)).value
        for c in (3.0, 0.125, 1e-8, 17.5):
            scaled = mixed_norm(BilinearForm("real", c * entries), pair(1.7, 2.3)).value
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_monotone_in_each_exponent(self):
        rng = np.random.default_rng(3)
        grid = [1.0, 1.5, 2.0, 3.0, 6.0, math.inf]
        for _ in range(10):
            entries = rng.standard_normal((3, 4))
            form = BilinearForm("real", entries)
            values_a = [mixed_norm(form, pair(a, 2)).value for a in grid]
            values_b = [mixed_norm(form, pair(2, b)).value for b in grid]
            for prev, nxt in zip(values_a, values_a[1:]):
                assert nxt <= prev * (1 + 1e-12)
            for prev, nxt in zip(values_b, values_b[1:]):
                assert nxt <= prev * (1 + 1e-12)

    def test_minkowski_transpose_inequality(self):
        rng = np.random.default_rng(5)
        exponents = [1.0, 4 / 3, 2.0, 3.0, math.inf]
        for t in range(25):
            entries = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            form = BilinearForm("real", entries)
            tform = transpose(form)
            for i, a in enumerate(exponents):
                for b in exponents[i:]:  # a <= b
                    lhs = mixed_norm(form, pair(a, b)).value
                    rhs = mixed_norm(tform, pair(b, a)).value
                    assert lhs <= rhs + 1e-9

    def test_interpolation_theta0(self):
        rng = np.random.default_rng(13)
        for t in range(25):
            entries = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            form = BilinearForm("real", entries)
            sup_row = mixed_norm(form, pair(math.inf, 1)).value
            frob = mixed_norm(form, pair(2, 2)).value
            for a in (2.0, 3.0, 4.0, 8.0):
                theta0 = (a - 2.0) / a
                lhs = mixed_norm(form, pair(a, conjugate(a).value)).value
                assert lhs <= sup_row ** theta0 * frob ** (1 - theta0) + 1e-9

    def test_interpolation_theta1(self):
        rng = np.random.default_rng(17)
        for t in range(25):
            entries = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            form = BilinearForm("real", entries)
            for a in (2.0, 3.0, 4.0):
                a_star = conjugate(a).value
                m_a1 = mixed_norm(form, pair(a, 1)).value
                m_astar = mixed_norm(form, pair(a, a_star)).value
                for b in (1.0, 1.25, a_star):
                    theta1 = 1.0 - a + a / b  # equals 1 - a/b*
                    lhs = mixed_norm(form, pair(a, b)).value
                    assert lhs <= m_a1 ** theta1 * m_astar ** (1 - theta1) + 1e-9


class TestGridHelper:
    def test_matches_public_mixed_norm(self):
        # the grid evaluator gives each (a, b) the bits of the reference op
        rng = np.random.default_rng(2)
        invs = np.arange(7) / 6.0
        ps = [math.inf if inv == 0 else 1 / inv for inv in invs]
        for _ in range(6):
            form = BilinearForm("real", rng.standard_normal((4, 5)))
            grid = _mixed_norms(form.entries[None], ps, ps)[0]
            for i, a in enumerate(ps):
                for j, b in enumerate(ps):
                    assert grid[i, j] == mixed_norm(form, pair(a, b)).value

    def test_large_stack_sums_exactly_rounded(self):
        # 101 x 100 entries per matrix take the fsum path, as mixed_norm does
        rng = np.random.default_rng(9)
        ps = [math.inf, 4.0, 2.0, 4.0 / 3.0, 1.0]
        stack = rng.standard_normal((2, 101, 100))
        grids = _mixed_norms(stack, ps, ps)
        for form, grid in zip(stack, grids):
            for i, a in enumerate(ps):
                for j, b in enumerate(ps):
                    assert grid[i, j] == mixed_norm(BilinearForm("real", form), pair(a, b)).value

    def test_zero_matrix(self):
        ps = [math.inf, 2.0, 1.0]
        form = BilinearForm("real", np.zeros((2, 2)))
        assert np.all(_mixed_norms(form.entries[None], ps, ps) == 0.0)

    def test_layout_free(self):
        # a form keeps an F-ordered caller's layout; the grid must still sum
        # as for the C-ordered copy (rows of 13 reach pairwise summation)
        rng = np.random.default_rng(31)
        ps = [4.0 / 3.0, 2.0, 3.0, math.inf, 1.0]
        for _ in range(200):
            entries = rng.standard_normal((5, 13))
            strided = np.zeros((10, 39))
            strided[::2, ::3] = entries
            expected = _mixed_norms(
                BilinearForm("real", entries.copy(order="C")).entries[None], ps, ps)
            for layout in (np.asfortranarray(entries), strided[::2, ::3]):
                grid = _mixed_norms(BilinearForm("real", layout).entries[None], ps, ps)
                assert grid.tobytes() == expected.tobytes()


class TestTranspose:
    def test_witness_is_symmetric(self):
        assert np.array_equal(transpose(witness_a0()).entries, witness_a0().entries)

    def test_shape_swap(self):
        form = BilinearForm("real", [[1.0, 2.0]])
        assert transpose(form).entries.shape == (2, 1)

    def test_involution(self):
        rng = np.random.default_rng(23)
        entries = rng.standard_normal((5, 7))
        form = BilinearForm("real", entries)
        assert np.array_equal(transpose(transpose(form)).entries, entries)

    def test_complex_roundtrip(self):
        rng = np.random.default_rng(29)
        entries = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        form = BilinearForm("complex", entries)
        assert np.array_equal(transpose(form).entries, entries.T)
        assert np.array_equal(transpose(transpose(form)).entries, entries)

    def test_fortran_ordered_complex_input(self):
        entries = np.asfortranarray([[1 + 2j, 3.0], [0.5j, -1.0]])
        assert np.array_equal(BilinearForm("complex", entries).entries, entries)
        with pytest.raises(ValueError):
            BilinearForm("complex", np.asfortranarray([[1.0, complex(0, np.inf)]]))


class TestWitness:
    def test_entries(self):
        assert np.array_equal(witness_a0("real").entries, [[1.0, 1.0], [1.0, -1.0]])

    def test_complex_tag(self):
        form = witness_a0("complex")
        assert form.is_complex and form.entries.dtype == np.complex128

    def test_sharpness_identity_at_littlewood(self):
        # mixed norm / operator norm = 2^(1/a + 1/b - 1); the norm is 2
        ratio = mixed_norm(witness_a0(), pair("4/3", "4/3")).value / 2.0
        assert ratio == pytest.approx(math.sqrt(2), rel=1e-12)


class TestRandomForm:
    def test_deterministic_for_fixed_seed(self):
        a = random_form("complex", 3, 4, "gaussian", seed=42)
        b = random_form("complex", 3, 4, "gaussian", seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_sign_codomain_real(self):
        form = random_form("real", 6, 7, "sign", seed=1)
        assert set(np.unique(form.entries)) <= {-1.0, 1.0}

    def test_sign_codomain_complex_t4(self):
        form = random_form("complex", 6, 7, "sign", seed=2)
        assert np.all(np.isin(form.entries, [1, 1j, -1, -1j]))

    def test_sparse_sign_keeps_a_nonzero(self):
        for seed in range(20):
            form = random_form("real", 2, 2, "sparse-sign", seed=seed)
            assert np.any(form.entries != 0)
            assert set(np.unique(form.entries)) <= {-1.0, 0.0, 1.0}

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            random_form("real", 0, 3, "gaussian", seed=0)
        with pytest.raises(ValueError):
            random_form("real", 3, 0, "gaussian", seed=0)

    def test_complex_gaussian_mean_near_zero(self):
        # 10^4 draws; the entrywise mean should be within 3 sigma of zero
        draws = 10_000
        total = 0.0 + 0.0j
        for seed in range(100):
            form = random_form("complex", 10, 10, "gaussian", seed=seed)
            total += form.entries.sum()
        mean = total / (draws * 1.0)
        sigma = 1.0 / math.sqrt(draws)
        assert abs(mean.real) < 3 * sigma and abs(mean.imag) < 3 * sigma


class TestJsonInterchange:
    def test_real_roundtrip(self, tmp_path):
        form = random_form("real", 3, 5, "gaussian", seed=9)
        path = tmp_path / "m.json"
        save_form(form, path)
        again = load_form(path)
        assert again.field == "real"
        assert np.array_equal(again.entries, form.entries)

    def test_complex_roundtrip(self, tmp_path):
        form = random_form("complex", 4, 2, "gaussian", seed=10)
        path = tmp_path / "m.json"
        save_form(form, path)
        again = load_form(path)
        assert np.array_equal(again.entries, form.entries)

    def test_two_saves_identical_bytes(self, tmp_path):
        form = random_form("complex", 3, 3, "gaussian", seed=11)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_form(form, p1)
        save_form(form, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_real_mode_forbids_imaginary_parts(self):
        with pytest.raises(SerializationError, match="entries"):
            form_from_json({"field": "real", "rows": 1, "cols": 2,
                            "entries": [[1.0, 0.0], [2.0, 0.0]]})

    def test_complex_mode_requires_pairs(self):
        with pytest.raises(SerializationError, match="entries"):
            form_from_json({"field": "complex", "rows": 1, "cols": 2,
                            "entries": [1.0, 2.0]})

    def test_missing_field_named(self):
        with pytest.raises(SerializationError, match="rows"):
            form_from_json({"field": "real", "cols": 2, "entries": [1.0, 2.0]})

    def test_wrong_count_rejected(self):
        with pytest.raises(SerializationError, match="entries"):
            form_from_json({"field": "real", "rows": 2, "cols": 2,
                            "entries": [1.0, 2.0, 3.0]})

    def test_schema_shape(self):
        doc = form_to_json(witness_a0("real"))
        assert doc == {"field": "real", "rows": 2, "cols": 2,
                       "entries": [1.0, 1.0, 1.0, -1.0]}
        cdoc = form_to_json(witness_a0("complex"))
        assert cdoc["entries"][3] == [-1.0, 0.0]

import math

import numpy as np
import pytest

from litt43 import khinchin, opnorm, search
from litt43.errors import SerializationError
from litt43.exponents import ExponentPair
from litt43.forms import BilinearForm, mixed_norm
from litt43.khinchin import (CoefficientVector, e_m_average, lr_norm, rademacher_average,
                             steinhaus_expectation)
from litt43.opnorm import complex_norm_bounds, real_sup_norm
from litt43.search import (SearchConfig, SearchResult, checkpoint_load,
                           checkpoint_save, evaluate_witness,
                           maximize_khinchin_ratio, maximize_ratio)

SQRT2 = math.sqrt(2.0)

_DELETE = object()


def small_cfg(seed=1, restarts=6, steps=400):
    return SearchConfig(restarts=restarts, steps=steps, scale=0.5, seed=seed,
                        dims=(2, 2))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(steps=-1)
        for scale in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                SearchConfig(scale=scale)
        with pytest.raises(ValueError):
            SearchConfig(dims=(0, 2))

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -1e-300, -math.inf])
    def test_rejects_nan_and_negative_budgets(self, budget):
        # a NaN deadline never expires; a negative one used to act as 0
        with pytest.raises(ValueError, match="budget_seconds"):
            SearchConfig(budget_seconds=budget)

    @pytest.mark.parametrize("budget", [None, 0.0, 2.5, math.inf])
    def test_accepts_none_and_non_negative_budgets(self, budget):
        assert SearchConfig(budget_seconds=budget).budget_seconds == budget

    # numpy warns of each overflow, which is the input under test here
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_proposals_are_undefined(self, tmp_path, monkeypatch):
        # proposals of entries near 1e308 have a finite form but a mixed norm
        # that overflows to inf: an undefined ratio, never a falsification
        monkeypatch.chdir(tmp_path)
        cfg = SearchConfig(restarts=1, steps=50, scale=1e308, seed=1, dims=(2, 2))
        result = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), cfg)
        assert math.isfinite(result.best_ratio) and not result.falsification
        assert result.best_ratio <= result.ceiling + 1e-9
        checkpoint_save(result, tmp_path / "c.json")
        assert checkpoint_load(tmp_path / "c.json").best_ratio == result.best_ratio
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, workers):
        cfg = small_cfg(restarts=1, steps=1)
        with pytest.raises(ValueError, match="workers"):
            maximize_ratio("real", ExponentPair.of("4/3", "4/3"), cfg, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            maximize_khinchin_ratio("rademacher", 2.0, 3, cfg, workers=workers)


class TestRealFormSearch:
    def test_recovers_sharp_ratio_at_littlewood(self):
        cfg = SearchConfig(restarts=50, steps=2000, scale=0.5, seed=1, dims=(2, 2))
        result = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), cfg)
        assert result.best_ratio >= SQRT2 - 1e-9
        assert result.best_ratio <= result.ceiling + 1e-9
        assert not result.falsification

    def test_witness_is_signed_permutation_of_a0(self):
        cfg = SearchConfig(restarts=50, steps=2000, scale=0.5, seed=1, dims=(2, 2))
        result = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), cfg)
        w = result.witness.entries
        scaled = np.abs(w) / np.abs(w).max()
        # all four magnitudes equal, and the sign pattern is A0-like:
        # normalized |det| = 2 characterizes [[1,1],[1,-1]] up to signed permutation
        assert np.allclose(scaled, 1.0, atol=1e-4)
        assert abs(np.linalg.det(w / np.abs(w).max())) == pytest.approx(2.0, abs=1e-3)

    def test_rii_ceiling_is_one_and_attained_by_single_entry(self):
        cfg = SearchConfig(restarts=8, steps=400, scale=0.5, seed=3, dims=(4, 4))
        result = maximize_ratio("real", ExponentPair.of(3, 3), cfg)
        assert result.ceiling == 1.0
        assert result.best_ratio <= 1.0 + 1e-9
        single = BilinearForm("real", [[1.0]])
        attained = mixed_norm(single, ExponentPair.of(3, 3)).value / real_sup_norm(single)
        assert attained == 1.0

    def test_determinism(self):
        cfg = small_cfg(seed=11)
        r1 = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), cfg)
        r2 = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), cfg)
        assert r1.best_ratio == r2.best_ratio
        assert r1.improved_at == r2.improved_at
        assert np.array_equal(r1.witness.entries, r2.witness.entries)

    def test_seed_changes_trajectory(self):
        # restart seeds are seed + index, so use disjoint seed ranges
        r1 = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), small_cfg(seed=1))
        r2 = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), small_cfg(seed=1000))
        assert not np.array_equal(r1.witness.entries, r2.witness.entries)

    def test_witness_validity(self):
        result = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), small_cfg())
        replay = evaluate_witness(result)
        assert replay == pytest.approx(result.best_ratio, rel=1e-12)

    def test_inadmissible_pair_rejected(self):
        from litt43.errors import InadmissibleExponentsError
        with pytest.raises(InadmissibleExponentsError):
            maximize_ratio("real", ExponentPair.of(1, 1), small_cfg())

    def test_parallel_restarts_match_serial(self):
        cfg = small_cfg(seed=5, restarts=4, steps=150)
        serial = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), cfg, workers=1)
        parallel = maximize_ratio("real", ExponentPair.of("4/3", "4/3"), cfg, workers=2)
        assert serial.best_ratio == parallel.best_ratio
        assert serial.improved_at == parallel.improved_at
        assert np.array_equal(serial.witness.entries, parallel.witness.entries)


class TestComplexFormSearch:
    def test_sharp_point_one_two(self):
        cfg = SearchConfig(restarts=6, steps=250, scale=0.5, seed=7, dims=(3, 3))
        result = maximize_ratio("complex", ExponentPair.of(1, 2), cfg, m=16)
        assert result.ceiling == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
        assert result.best_ratio <= result.ceiling + 1e-6
        assert result.optimistic_ratio is not None
        assert result.best_ratio <= result.optimistic_ratio + 1e-15
        assert "upper bound" in result.ceiling_provenance

    def test_witness_validity_complex(self):
        cfg = SearchConfig(restarts=3, steps=120, scale=0.5, seed=9, dims=(2, 2))
        result = maximize_ratio("complex", ExponentPair.of(1, 2), cfg, m=8)
        assert evaluate_witness(result) == pytest.approx(result.best_ratio, rel=1e-12)


class TestKhinchinSearch:
    def test_rademacher_sharp_r2(self):
        cfg = SearchConfig(restarts=10, steps=5000, scale=0.5, seed=1, dims=(1, 8))
        result = maximize_khinchin_ratio("rademacher", 2.0, 8, cfg)
        assert result.best_ratio == pytest.approx(SQRT2, abs=1e-9)
        assert result.best_ratio <= SQRT2 + 1e-12
        w = np.abs(result.witness.values)
        top2 = np.sort(w)[::-1][:2]
        assert top2[1] == pytest.approx(top2[0], rel=1e-3)

    def test_rademacher_r_inf_is_one(self):
        cfg = SearchConfig(restarts=6, steps=400, scale=0.5, seed=2, dims=(1, 8))
        result = maximize_khinchin_ratio("rademacher", math.inf, 8, cfg)
        assert result.best_ratio == pytest.approx(1.0, abs=1e-12)
        assert result.ceiling == 1.0

    def test_e_m_search_ceiling_safe(self):
        cfg = SearchConfig(restarts=4, steps=200, scale=0.5, seed=3, dims=(1, 4))
        result = maximize_khinchin_ratio("e_m", 2.0, 4, cfg, m=8)
        assert result.best_ratio <= result.ceiling + 1e-9
        assert not result.falsification

    def test_steinhaus_search_small(self):
        cfg = SearchConfig(restarts=4, steps=300, scale=0.5, seed=4, dims=(1, 2))
        result = maximize_khinchin_ratio("steinhaus", 2.0, 2, cfg, q=64)
        assert result.best_ratio <= 2.0 / math.sqrt(math.pi) + 1e-6
        assert result.best_ratio >= math.pi * SQRT2 / 4.0 - 1e-3
        assert isinstance(result.witness, CoefficientVector)

    def test_exploratory_provenance_for_open_r(self):
        cfg = SearchConfig(restarts=2, steps=100, scale=0.5, seed=5, dims=(1, 3))
        result = maximize_khinchin_ratio("steinhaus", 3.0, 3, cfg, q=32)
        assert "exploratory" in result.ceiling_provenance
        assert result.best_ratio <= result.ceiling + 1e-6

    @pytest.mark.parametrize("model, n", [("rademacher", 4), ("e_m", 3), ("steinhaus", 3)])
    def test_best_ratio_is_a_python_float(self, model, n):
        # checkpoints serialize it: an np.float64 must not leak out of the kernels
        cfg = SearchConfig(restarts=2, steps=20, scale=0.5, seed=6, dims=(1, n))
        result = maximize_khinchin_ratio(model, 2.0, n, cfg, m=3, q=16)
        assert type(result.best_ratio) is float
        assert type(evaluate_witness(result)) is float

    def test_em_requires_m(self):
        with pytest.raises(ValueError):
            maximize_khinchin_ratio("e_m", 2.0, 4, small_cfg())


class TestCheckpoints:
    def _result(self, seed=13):
        return maximize_ratio("real", ExponentPair.of("4/3", "4/3"),
                              small_cfg(seed=seed, restarts=3, steps=150))

    def test_roundtrip_identity(self, tmp_path):
        result = self._result()
        path = tmp_path / "c.json"
        checkpoint_save(result, path)
        loaded = checkpoint_load(path)
        assert loaded.kind == result.kind
        assert loaded.params == result.params
        assert loaded.config == result.config
        assert loaded.best_ratio == result.best_ratio
        assert loaded.ceiling == result.ceiling
        assert loaded.ceiling_provenance == result.ceiling_provenance
        assert loaded.restarts_run == result.restarts_run
        assert loaded.improved_at == result.improved_at
        assert np.array_equal(loaded.witness.entries, result.witness.entries)

    def test_coefficient_witness_roundtrip(self, tmp_path):
        cfg = SearchConfig(restarts=2, steps=100, scale=0.5, seed=2, dims=(1, 3))
        result = maximize_khinchin_ratio("steinhaus", 2.0, 3, cfg, q=32)
        path = tmp_path / "c.json"
        checkpoint_save(result, path)
        loaded = checkpoint_load(path)
        assert isinstance(loaded.witness, CoefficientVector)
        assert np.array_equal(loaded.witness.values, result.witness.values)
        assert evaluate_witness(loaded) == pytest.approx(loaded.best_ratio, rel=1e-12)

    def test_two_saves_byte_identical(self, tmp_path):
        result = self._result()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        checkpoint_save(result, p1)
        checkpoint_save(result, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        result = self._result()
        path = tmp_path / "c.json"
        checkpoint_save(result, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(SerializationError):
            checkpoint_load(path)

    def test_missing_field_named(self, tmp_path):
        result = self._result()
        path = tmp_path / "c.json"
        checkpoint_save(result, path)
        import json
        doc = json.loads(path.read_text())
        del doc["best_ratio"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError, match="best_ratio"):
            checkpoint_load(path)

    def test_wrong_version_rejected(self, tmp_path):
        result = self._result()
        path = tmp_path / "c.json"
        checkpoint_save(result, path)
        import json
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError, match="version"):
            checkpoint_load(path)

    @pytest.mark.parametrize("keys, value, field", [
        (("version",), True, "version"),
        (("kind",), "nope", "kind"),
        (("params", "a"), _DELETE, "params"),
        (("params", "b"), _DELETE, "params"),
        (("config", "dims"), ["a", 2], "config.dims"),
        (("config", "dims"), [[1], 2], "config.dims"),
        (("config", "dims"), [2.7, 2], "config.dims"),
        (("config", "restarts"), 0, "restarts"),
        (("config", "steps"), True, "steps"),
        (("config", "budget_seconds"), -1, "budget_seconds"),
        (("restarts_run",), 0, "restarts_run"),
        (("improved_at",), [["x", 0]], "improved_at"),
        (("improved_at",), [[None, 0]], "improved_at"),
        (("improved_at",), [[0, 151]], "improved_at"),
        (("config", "scale"), float("inf"), "scale"),
    ])
    def test_malformed_field_is_named(self, tmp_path, keys, value, field):
        # no edit may escape as another error, be truncated (dims 2.7) or
        # load and fail later in evaluate_witness
        path = tmp_path / "c.json"
        checkpoint_save(self._result(), path)
        import json
        doc = json.loads(path.read_text())
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError, match=field):
            checkpoint_load(path)

    @pytest.mark.parametrize("model, field, value", [
        ("e_m", "m", 4.9),
        ("e_m", "m", 1),
        ("e_m", "m", True),
        ("e_m", "n", 2.7),
        ("e_m", "n", -5),
        ("e_m", "n", 0),
        ("e_m", "n", "3"),
        ("steinhaus", "q", 31),
        ("steinhaus", "q", 2),
        ("steinhaus", "q", 32.0),
        ("complex", "m", 8.5),
        ("complex", "m", 2),
    ])
    def test_non_integer_or_out_of_range_param_is_named(self, tmp_path, model, field, value):
        # int() once truncated m = 4.9 to M = 4 and let n = 2.7 or -5 load
        cfg = SearchConfig(restarts=1, steps=5, scale=0.5, seed=3, dims=(2, 3))
        if model == "complex":
            result = maximize_ratio("complex", ExponentPair.of("4/3", "4/3"), cfg, m=8)
        else:
            result = maximize_khinchin_ratio(model, 2.0, 3, cfg, m=4, q=32)
        path = tmp_path / "c.json"
        checkpoint_save(result, path)
        import json
        doc = json.loads(path.read_text())
        doc["params"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError, match=f"params.{field}"):
            checkpoint_load(path)

    def test_falsification_is_saved_in_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(search._FormObjective, "ceiling", lambda self: (1.0, "forced"))
        result = self._result()
        assert result.falsification
        loaded = checkpoint_load(tmp_path / "litt43-falsification-form_ratio-seed13.json")
        assert (loaded.best_ratio, loaded.ceiling, loaded.ceiling_provenance) == (
            result.best_ratio, 1.0, "forced")
        assert (loaded.config, loaded.improved_at) == (result.config, result.improved_at)
        assert np.array_equal(loaded.witness.entries, result.witness.entries)

    def test_falsification_flag_is_a_property(self):
        result = self._result()
        assert not result.falsification
        tampered = SearchResult(
            kind=result.kind, params=result.params, config=result.config,
            best_ratio=result.ceiling + 1.0, witness=result.witness,
            ceiling=result.ceiling, ceiling_provenance=result.ceiling_provenance,
            restarts_run=result.restarts_run, improved_at=result.improved_at)
        assert tampered.falsification


class _SerialReference:
    """The climber one proposal per evaluation, through the public functions only.

    This is the per-step loop the step windows must reproduce bit for bit:
    noise drawn step by step from the restart's own stream, strict
    improvement, the 0.95 decay and the bounded regrowth.
    """

    def __init__(self, kind, params):
        self.kind, self.params = kind, params
        if kind == "form_ratio":
            self.field = params["field"]
            self.pair = ExponentPair.of(params["a"], params["b"])
        else:
            self.field = "real" if params["model"] == "rademacher" else "complex"

    def draw(self, rng, shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if self.field == "complex" else x

    def normalize(self, x):
        if self.kind == "form_ratio":
            return x
        norm = lr_norm(x, self.params["r"])
        return x if norm == 0.0 else x / norm

    def ratio(self, x):
        p = self.params
        if self.kind == "form_ratio":
            form = BilinearForm(self.field, x)
            numerator = mixed_norm(form, self.pair).value
            if self.field == "real":
                denominator = real_sup_norm(form)
            else:
                denominator = complex_norm_bounds(form, p["m"]).upper
            return None if denominator < 1e-12 else numerator / denominator
        numerator = lr_norm(x, p["r"])
        if numerator == 0.0:
            return None
        if p["model"] == "rademacher":
            average = rademacher_average(x).value
        elif p["model"] == "e_m":
            average = e_m_average(x, p["m"]).value
        else:
            average = steinhaus_expectation(x, method="quadrature", q=p["q"]).value
        return None if average < 1e-12 * numerator else numerator / average

    def final(self, x):
        if self.kind != "form_ratio":
            return self.ratio(x), None
        form = BilinearForm(self.field, x)
        numerator = mixed_norm(form, self.pair).value
        if self.field == "real":
            return numerator / real_sup_norm(form), None
        bounds = complex_norm_bounds(form, self.params["m"], refine=True)
        return numerator / bounds.upper, numerator / bounds.lower

    def restart(self, cfg, restart):
        rng = np.random.default_rng(cfg.seed + restart)
        shape = cfg.dims if self.kind == "form_ratio" else (self.params["n"],)
        x = self.normalize(self.draw(rng, shape))
        current = self.ratio(x)
        redraws = 0
        while current is None and redraws < 100:
            x = self.normalize(self.draw(rng, shape))
            current = self.ratio(x)
            redraws += 1
        scale = cfg.scale
        events = [(0, current)]
        for step in range(1, cfg.steps + 1):
            candidate = self.normalize(x + scale * self.draw(rng, x.shape))
            value = self.ratio(candidate)
            if value is not None and value > current:
                x, current = candidate, value
                scale = min(cfg.scale, scale / 0.95 ** 20)
                events.append((step, current))
            else:
                scale *= 0.95
        return x, events

    def search(self, cfg):
        best_x, best_value, improved_at = None, -math.inf, []
        for restart in range(cfg.restarts):
            x, events = self.restart(cfg, restart)
            improved_here = False
            for step, value in events:
                if value > best_value:
                    best_value = value
                    improved_at.append((restart, step))
                    improved_here = True
            if improved_here:
                best_x = x
        best_ratio, optimistic = self.final(best_x)
        return tuple(improved_at), best_ratio, optimistic, best_x


_PAIR = ExponentPair.of("4/3", "4/3")
_TRAJECTORIES = {
    "real-1x1": lambda cfg, w: maximize_ratio("real", _PAIR, cfg, workers=w),
    "real-2x2": lambda cfg, w: maximize_ratio("real", _PAIR, cfg, workers=w),
    "real-3x5": lambda cfg, w: maximize_ratio("real", _PAIR, cfg, workers=w),
    "real-8x8": lambda cfg, w: maximize_ratio("real", _PAIR, cfg, workers=w),
    "real-12x12": lambda cfg, w: maximize_ratio("real", _PAIR, cfg, workers=w),
    "complex-2x2-m8": lambda cfg, w: maximize_ratio("complex", _PAIR, cfg, m=8, workers=w),
    "complex-3x3-m16": lambda cfg, w: maximize_ratio("complex", ExponentPair.of(1, 2), cfg,
                                                     m=16, workers=w),
    "rademacher-n1": lambda cfg, w: maximize_khinchin_ratio("rademacher", 2.0, 1, cfg,
                                                            workers=w),
    "rademacher-n4": lambda cfg, w: maximize_khinchin_ratio("rademacher", 2.0, 4, cfg,
                                                            workers=w),
    "rademacher-n8": lambda cfg, w: maximize_khinchin_ratio("rademacher", 3.0, 8, cfg,
                                                            workers=w),
    "e_m-n4-m3": lambda cfg, w: maximize_khinchin_ratio("e_m", 2.0, 4, cfg, m=3, workers=w),
    "steinhaus-n3-q32": lambda cfg, w: maximize_khinchin_ratio("steinhaus", 2.0, 3, cfg,
                                                               q=32, workers=w),
}
_DIMS = {"real-1x1": (1, 1), "real-3x5": (3, 5), "real-8x8": (8, 8),
         "real-12x12": (12, 12), "complex-3x3-m16": (3, 3)}


def _cfg(case, steps, restarts=5):
    return SearchConfig(restarts=restarts, steps=steps, scale=0.5, seed=17,
                        dims=_DIMS.get(case, (2, 2)))


def _witness_bytes(result):
    witness = (result.witness.entries if isinstance(result.witness, BilinearForm)
               else result.witness.values)
    return np.asarray(witness).tobytes()


def _assert_matches_serial(case, steps, workers):
    cfg = _cfg(case, steps)
    result = _TRAJECTORIES[case](cfg, workers)
    reference = _SerialReference(result.kind, result.params)
    improved_at, best_ratio, optimistic, best_x = reference.search(cfg)
    assert result.improved_at == improved_at
    assert result.best_ratio == best_ratio
    assert result.optimistic_ratio == optimistic
    assert _witness_bytes(result) == np.asarray(best_x).tobytes()


class TestStepWindows:
    """The lock-step windowed climber against the per-step reference, bit for bit.

    Five restarts leave the climber's lock-step groups holding restarts
    that stop after different numbers of rounds.
    """

    @pytest.mark.parametrize("steps", [0, 1, 63, 64, 65, 300])
    @pytest.mark.parametrize("case", sorted(_TRAJECTORIES))
    def test_matches_serial_trajectory(self, case, steps):
        _assert_matches_serial(case, steps, workers=1)

    @pytest.mark.parametrize("case", sorted(_TRAJECTORIES))
    def test_matches_serial_trajectory_with_workers(self, case):
        _assert_matches_serial(case, 65, workers=2)

    # table elements of one member's walk: K x 2^(N-1) signs of a 2x2 form,
    # 2^7 signs of an N = 8 vector, 32 AGM nodes of an N = 3 vector
    _MEMBER_ELEMENTS = {"real-2x2": 2 * 2, "rademacher-n8": 2 ** 7,
                        "steinhaus-n3-q32": 32 * khinchin._AGM_NODE_COST}

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("case", sorted(_MEMBER_ELEMENTS))
    def test_group_split_leaves_result_unchanged(self, monkeypatch, case, size):
        # a smaller walk bound splits each round of the five restarts into
        # parts of ``size`` members; the result must not see the split
        cfg = _cfg(case, 300)
        whole, whole_batches = self._batches(monkeypatch, lambda: _TRAJECTORIES[case](cfg, 1))
        assert search._groups(cfg, 1) == [range(5)]
        window = min(search._MAX_WINDOW, search._WINDOW_ELEMENTS // self._MEMBER_ELEMENTS[case])
        assert max(whole_batches) == 5 * window
        monkeypatch.setattr(opnorm, "_STACK_ELEMENTS", size * self._MEMBER_ELEMENTS[case])
        split, split_batches = self._batches(monkeypatch, lambda: _TRAJECTORIES[case](cfg, 1))
        assert max(split_batches) == size
        assert (split.improved_at, split.best_ratio, split.restarts_run) == (
            whole.improved_at, whole.best_ratio, whole.restarts_run)
        assert _witness_bytes(split) == _witness_bytes(whole)

    def test_pool_gets_a_group_per_worker(self):
        cfg = SearchConfig(restarts=5, steps=10, scale=0.5, seed=1, dims=(2, 2))
        assert search._groups(cfg, 1) == [range(5)]
        assert search._groups(cfg, 2) == [range(3), range(3, 5)]
        assert search._groups(cfg, 7) == [range(i, i + 1) for i in range(5)]
        budgeted = SearchConfig(restarts=3, steps=10, scale=0.5, seed=1, dims=(2, 2),
                                budget_seconds=60.0)
        assert search._groups(budgeted, 1) == [range(i, i + 1) for i in range(3)]

    @staticmethod
    def _batches(monkeypatch, search):
        """The result of ``search()`` and the batch size of each table it walked."""
        batches = []
        partial_sums = opnorm._partial_sums

        def spy(first, cols, points, *rest):
            batches.append(first.shape[0])
            return partial_sums(first, cols, points, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(opnorm, "_partial_sums", spy)
            return search(), batches

    @classmethod
    def _largest_batch(cls, monkeypatch, search):
        return max(cls._batches(monkeypatch, search)[1])

    def test_cheap_objective_fills_the_window(self, monkeypatch):
        cfg = SearchConfig(restarts=1, steps=200, scale=0.5, seed=3, dims=(2, 2))
        assert self._largest_batch(
            monkeypatch, lambda: maximize_ratio("real", _PAIR, cfg)) == 64

    @pytest.mark.parametrize("restarts", [2, 7])
    def test_cheap_objective_stacks_every_restart(self, monkeypatch, restarts):
        # one kernel call per round takes the window of every restart
        cfg = SearchConfig(restarts=restarts, steps=200, scale=0.5, seed=3, dims=(2, 2))
        assert self._largest_batch(
            monkeypatch, lambda: maximize_ratio("real", _PAIR, cfg)) == restarts * 64

    def test_wide_and_tall_complex_forms_get_one_window(self, monkeypatch):
        # both walk the 2-coordinate side: 6 x 16 table elements an evaluation
        windows = []
        for dims in ((2, 6), (6, 2)):
            objective = search._make_objective("form_ratio", {
                "field": "complex", "a": "4/3", "b": "4/3", "m": 16})
            assert objective.cost(dims) == 6 * 16
            cfg = SearchConfig(restarts=1, steps=100, scale=0.5, seed=3, dims=dims)
            windows.append(self._largest_batch(
                monkeypatch, lambda: maximize_ratio("complex", _PAIR, cfg, m=16)))
        assert windows == [64, 64]

    def test_expensive_objectives_step_one_proposal_at_a_time(self, monkeypatch):
        # without the bound on table elements a window of 64 Steinhaus N = 6
        # proposals builds 64 tables of 16^5 entries at once; the window is
        # priced at the product rule whichever path the rows then take
        cfg = SearchConfig(restarts=1, steps=3, scale=0.5, seed=3, dims=(1, 6))
        rows, means = [], search._steinhaus_means

        def spy(X, *rest):
            rows.append(len(X))
            return means(X, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(search, "_steinhaus_means", spy)
            maximize_khinchin_ratio("steinhaus", 2.0, 6, cfg, q=16)
        assert max(rows) == 1
        cfg = SearchConfig(restarts=1, steps=20, scale=0.5, seed=3, dims=(12, 12))
        assert self._largest_batch(
            monkeypatch, lambda: maximize_ratio("real", _PAIR, cfg)) == 1


class TestBudgetSeconds:
    def test_zero_budget_runs_exactly_one_restart(self):
        # the wall-clock budget is checked only between restarts
        pair = ExponentPair.of("4/3", "4/3")
        budget = SearchConfig(restarts=5, steps=100, scale=0.5, seed=8, dims=(2, 2),
                              budget_seconds=0.0)
        single = SearchConfig(restarts=1, steps=100, scale=0.5, seed=8, dims=(2, 2))
        cut = maximize_ratio("real", pair, budget)
        one = maximize_ratio("real", pair, single)
        assert cut.restarts_run == 1
        assert cut.best_ratio == one.best_ratio
        assert cut.improved_at == one.improved_at
        assert cut.witness.entries.tobytes() == one.witness.entries.tobytes()

    def test_zero_budget_runs_exactly_one_restart_with_workers(self):
        # the pool checks the budget after each restart, in restart order
        pair = ExponentPair.of("4/3", "4/3")
        budget = SearchConfig(restarts=5, steps=100, scale=0.5, seed=8, dims=(2, 2),
                              budget_seconds=0.0)
        single = SearchConfig(restarts=1, steps=100, scale=0.5, seed=8, dims=(2, 2))
        cut = maximize_ratio("real", pair, budget, workers=2)
        one = maximize_ratio("real", pair, single)
        assert cut.restarts_run == 1
        assert cut.best_ratio == one.best_ratio
        assert cut.improved_at == one.improved_at
        assert cut.witness.entries.tobytes() == one.witness.entries.tobytes()

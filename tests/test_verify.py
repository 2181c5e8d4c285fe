import math
from pathlib import Path

import pytest

from litt43 import cli, opnorm, verify
from litt43.verify import (FAST_PRESET, CHECK_NAMES, CheckResult, report_to_json,
                           run_suite)

DATA = Path(__file__).parent / "data"


class TestSuitePlumbing:
    def test_presets_cover_every_check(self):
        assert set(FAST_PRESET) == set(CHECK_NAMES)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("medium")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no_such_check"):
            run_suite("fast", overrides={"no_such_check": 0.5})

    def test_selected_checks_only(self):
        report = run_suite("fast", seed=3, only=["witness_sharpness", "roundtrips"])
        assert [c["name"] for c in report["checks"]] == ["witness_sharpness",
                                                         "roundtrips"]
        assert report["all_passed"]

    def test_report_serializes_canonically(self):
        report = run_suite("fast", seed=3, only=["witness_sharpness"])
        text = report_to_json(report)
        assert text == report_to_json(run_suite("fast", seed=3,
                                                 only=["witness_sharpness"]))
        assert text.endswith("\n")

    def test_seeds_are_keyed_by_check_name(self, monkeypatch):
        seen = {}

        def recorder(name):
            def check(seed, **kwargs):
                seen[name] = seed
                return CheckResult(name, True, 1.0, {})
            return check

        monkeypatch.setattr(verify, "_CHECKS", {n: recorder(n) for n in CHECK_NAMES})
        run_suite("fast", seed=5)
        # the offsets of the registry order the reports were first made with
        assert seen == {n: 5 + i * 104729 for i, n in enumerate(CHECK_NAMES)}
        before = dict(seen)
        seen.clear()
        del verify._CHECKS["witness_sharpness"]
        run_suite("fast", seed=5)
        del before["witness_sharpness"]
        assert seen == before


class TestSteinhausSharpPoint:
    def test_passes_at_fast_seed_4(self):
        # at Q = 512 the N = 2 witness ratio carried a quadrature error of
        # about 1.1e-6 near equal moduli and failed the 1e-6 tolerance here
        report = run_suite("fast", seed=4, only=["steinhaus_sharp_point"])
        check = report["checks"][0]
        assert check["passed"], check
        assert check["details"]["per_dim"]["2"] == pytest.approx(math.pi * math.sqrt(2.0) / 4.0,
                                                                 abs=1e-6)

    @pytest.mark.parametrize("seed", [13, 14, 15, 34, 35, 36, 37])
    def test_passes_where_the_product_rule_misled_the_search(self, seed):
        # the Q = 32 product rule misread the N = 2 ratio near equal moduli
        # by more than the check's 1e-6, and the climb stopped short there
        report = run_suite("fast", seed=seed, only=["steinhaus_sharp_point"])
        assert report["all_passed"], report["checks"][0]


@pytest.mark.parametrize("seed", [1, 2])
def test_fast_report_matches_golden_bytes(seed, tmp_path, capsys):
    # the committed reports predate the batched checks; any change to a
    # report shows up here as a fixture diff (the full seed-1 report is
    # compared the same way in CI, where its ~20 s fit)
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "fast", "--seed", str(seed),
                     "--report", str(path)]) == 0
    assert path.read_bytes() == (DATA / f"verify-fast-seed{seed}.json").read_bytes()


# Small presets of the checks that evaluate stacks of samples; each runs
# at its fast seed-1 seed, where its search reaches the sharp ratio
_BATCHED = {
    "real_upper_bound": {"forms_per_shape": 6, "shapes": (1, 3, 5), "grid": 6},
    "lemma_ceilings": {"forms": 21},
    "khinchin_sharpness": {"samples": 90, "max_n": 7, "search_restarts": 6,
                           "search_steps": 5000},
    "blei_khinchine": {"vectors": 12, "max_n": 4, "search_restarts": 1,
                       "search_steps": 10, "m_values": (2, 3)},
}


@pytest.mark.parametrize("name", sorted(_BATCHED))
def test_stack_size_changes_no_result(name, monkeypatch):
    # one member per walk against one walk per stack: margins bit for bit
    # and equal details
    check = verify._CHECKS[name]
    results = []
    for elements in (1, 1 << 40):
        monkeypatch.setattr(opnorm, "_STACK_ELEMENTS", elements)
        results.append(check(seed=1 + verify._SEED_OFFSETS[name], **_BATCHED[name]))
    single, whole = results
    assert single.margin.hex() == whole.margin.hex()
    assert (single.name, single.passed, single.details) == (
        whole.name, whole.passed, whole.details)
    assert whole.passed


@pytest.mark.parametrize("name", sorted(_BATCHED))
def test_tightened_ceiling_fails_batched_check_by_name(name):
    result = verify._CHECKS[name](seed=1 + verify._SEED_OFFSETS[name], ceiling_scale=0.5,
                                  **_BATCHED[name])
    assert result.name == name
    assert not result.passed and result.margin < 0.0

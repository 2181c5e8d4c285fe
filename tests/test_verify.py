import pytest

from litt43 import verify
from litt43.verify import (FAST_PRESET, CHECK_NAMES, CheckResult, report_to_json,
                           run_suite)


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
        assert check["details"]["per_dim"]["2"] == pytest.approx(1.1107206819, abs=1e-8)

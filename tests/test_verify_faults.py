"""The seeded-fault harness: every deliberate corruption must be detected."""

import pytest

from repro.outofssa.config import ENGINE_CONFIGURATIONS
from repro.verify.faults import CLEAN_PROGRAMS, SEEDED_FAULTS, run_clean


class TestSeededFaults:
    @pytest.mark.parametrize(
        "fault", SEEDED_FAULTS, ids=[fault.name for fault in SEEDED_FAULTS]
    )
    def test_fault_is_detected_with_expected_code(self, fault):
        report = fault.run()
        assert fault.expected_code in report.codes(), (
            f"{fault.name}: expected {fault.expected_code}, report:\n{report.render()}"
        )
        assert not report.ok

    def test_catalogue_covers_every_check_family(self):
        expected = {fault.expected_code for fault in SEEDED_FAULTS}
        # One structural, one SSA, one CSSA, class checks, residue and
        # sequentialization/behaviour checks.
        for family in ("V107", "V202", "V301", "V401", "V402", "V403",
                       "V501", "V502", "V503", "V504"):
            assert family in expected


class TestCleanPipeline:
    @pytest.mark.parametrize("engine", [e.name for e in ENGINE_CONFIGURATIONS])
    def test_gallery_is_quiet_at_full(self, engine):
        for maker in CLEAN_PROGRAMS:
            report = run_clean(maker(), engine)
            assert report.ok and report.diagnostics == [], (
                f"{engine}/{maker.__name__}: {report.render()}"
            )

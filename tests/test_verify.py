"""Tests for the staged static-analysis (verification) framework."""

import json

import pytest

from repro.gallery import figure3_swap_problem, figure4_lost_copy_problem
from repro.ir import format_function, text_digest
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.outofssa.config import ENGINE_CONFIGURATIONS, EngineConfig
from repro.pipeline import Pipeline
from repro.verify import CODE_CATALOGUE, Diagnostic, Severity, VerifyReport
from repro.verify.checks import (
    check_no_ssa_residue,
    check_ssa,
    check_structure,
)
from repro.verify.diagnostics import diagnostic
from tests.helpers import GALLERY_PROGRAMS, diamond_function, loop_function


# --------------------------------------------------------------------------- model
class TestDiagnosticModel:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic(code="V999", message="nope", severity=Severity.ERROR)

    def test_severity_defaults_from_catalogue(self):
        error = diagnostic("V101", "function has no blocks", function="f")
        warning = diagnostic("V204", "unreachable uses", function="f", block="dead")
        assert error.severity is Severity.ERROR and error.is_error
        assert warning.severity is Severity.WARNING and not warning.is_error

    def test_anchor_and_payload(self):
        diag = diagnostic("V103", "missing terminator", function="f", block="b")
        assert diag.anchor() == "f:b"
        payload = diag.to_payload()
        assert payload["code"] == "V103" and payload["severity"] == "error"

    def test_every_catalogue_entry_has_a_description(self):
        for code, (severity, description) in CODE_CATALOGUE.items():
            assert code.startswith("V") and description
            assert severity in (Severity.WARNING, Severity.ERROR)

    def test_report_ok_ignores_warnings(self):
        report = VerifyReport(function="f", level="fast")
        report.extend([diagnostic("V204", "w", function="f", block="dead")])
        assert report.ok and len(report.warnings) == 1
        report.extend([diagnostic("V101", "e", function="f")])
        assert not report.ok and len(report.errors) == 1
        assert "V101" in report.codes() and "V204" in report.codes()

    def test_report_render_mentions_verdict(self):
        report = VerifyReport(function="f", level="full")
        assert "ok" in report.render()
        report.extend([diagnostic("V101", "no blocks", function="f")])
        assert "V101" in report.render()


# --------------------------------------------------------------------------- checkers
class TestCheckers:
    def test_structure_clean_on_gallery(self):
        for _name, maker, _args in GALLERY_PROGRAMS:
            assert check_structure(maker()) == []

    def test_structure_flags_empty_function(self):
        diags = check_structure(Function("empty"))
        assert [d.code for d in diags] == ["V101"]

    def test_ssa_clean_on_gallery(self):
        assert check_ssa(diamond_function()) == []
        assert check_ssa(loop_function()) == []

    def test_unreachable_use_is_a_warning(self):
        fb = FunctionBuilder("f")
        entry, dead = fb.blocks("entry", "dead")
        with fb.at(entry):
            fb.ret()
        with fb.at(dead):
            fb.print("ghost")  # never defined, but unreachable
            fb.ret()
        diags = check_ssa(fb.finish())
        assert [d.code for d in diags] == ["V204"]
        assert all(not d.is_error for d in diags)

    def test_residue_clean_after_translation(self):
        function = figure4_lost_copy_problem()
        Pipeline.for_engine("us_i").run(function)
        assert check_no_ssa_residue(function) == []

    def test_residue_flags_remaining_phi(self):
        function = figure4_lost_copy_problem()
        codes = {d.code for d in check_no_ssa_residue(function)}
        assert "V501" in codes


# --------------------------------------------------------------------------- pipeline wiring
class TestPipelineVerification:
    def test_off_by_default(self):
        result = Pipeline.for_engine("us_i").run(figure3_swap_problem())
        assert result.verify_report is None
        assert result.stats.verify_ms == 0.0

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_checked_run_is_clean_and_timed(self, level):
        config = EngineConfig.builder("us_i").verify(level).build()
        result = Pipeline.for_engine(config).run(figure3_swap_problem())
        report = result.verify_report
        assert report is not None and report.ok
        assert report.diagnostics == []
        assert result.stats.verify_ms > 0.0
        assert result.stats.verify_diagnostics == 0
        assert "output" in report.stages_run

    def test_full_level_runs_every_stage(self):
        config = EngineConfig.builder("us_i").verify("full").build()
        report = Pipeline.for_engine(config).run(figure3_swap_problem()).verify_report
        for stage in ("input", "isolate", "coalesce", "output"):
            assert stage in report.stages_run

    def test_verify_level_excluded_from_fingerprint(self):
        plain = EngineConfig.builder("us_i").build()
        checked = EngineConfig.builder("us_i").verify("full").build()
        assert plain.fingerprint() == checked.fingerprint()

    def test_checked_run_does_not_perturb_counters_or_output(self):
        """The checkers snapshot/restore instrumentation counters, so a
        checked translation reports the same stats and emits the same IR
        as an unchecked one."""
        plain = Pipeline.for_engine("us_i").run(figure3_swap_problem())
        checked_config = EngineConfig.builder("us_i").verify("full").build()
        checked = Pipeline.for_engine(checked_config).run(figure3_swap_problem())
        assert format_function(plain.function) == format_function(checked.function)
        assert plain.stats.pair_queries == checked.stats.pair_queries
        assert plain.stats.intersection_queries == checked.stats.intersection_queries
        assert plain.stats.class_row_checks == checked.stats.class_row_checks

    def test_bogus_level_rejected(self):
        with pytest.raises(ValueError, match="unknown verify level"):
            EngineConfig.builder("us_i").verify("paranoid").build()


# --------------------------------------------------------------------------- engine sweep
def _full_verify_config(engine: str, backend: str) -> EngineConfig:
    return EngineConfig.builder(engine).interference(backend).verify("full").build()


def _matrix_over_liveness(engine: str, liveness: str) -> EngineConfig:
    return (
        EngineConfig.builder(engine)
        .liveness(liveness)
        .interference("matrix")
        .verify("full")
        .build()
    )


def _assert_gallery_quiet(config: EngineConfig) -> None:
    for _name, maker, _args in GALLERY_PROGRAMS:
        report = Pipeline.for_engine(config).run(maker()).verify_report
        assert report.ok and report.diagnostics == [], (
            f"{config.name}: {report.render()}"
        )


def _assert_stress_corpus_quiet(config: EngineConfig) -> None:
    from repro.bench.corpus import CorpusSpec, generate_stress_cfg

    spec = CorpusSpec(name="verify_sweep", seed=3, blocks=120,
                      loop_depth=3, variables=8)
    report = Pipeline.for_engine(config).run(generate_stress_cfg(spec)).verify_report
    assert report.ok and report.diagnostics == [], (
        f"{config.name}: {report.render()}"
    )


class TestCleanSweep:
    @pytest.mark.parametrize("engine", [e.name for e in ENGINE_CONFIGURATIONS])
    @pytest.mark.parametrize("backend", ["matrix", "query"])
    def test_every_engine_and_backend_is_quiet(self, engine, backend):
        _assert_gallery_quiet(_full_verify_config(engine, backend))

    @pytest.mark.parametrize("engine", [e.name for e in ENGINE_CONFIGURATIONS])
    @pytest.mark.parametrize("backend", ["matrix", "query"])
    def test_stress_corpus_is_quiet(self, engine, backend):
        """The acceptance sweep: a (φ-free, non-SSA) stress-corpus function
        translates diagnostic-free at full level under every engine ×
        interference backend."""
        _assert_stress_corpus_quiet(_full_verify_config(engine, backend))

    @pytest.mark.parametrize("engine", [e.name for e in ENGINE_CONFIGURATIONS])
    @pytest.mark.parametrize("liveness", ["sets", "check"])
    def test_matrix_over_query_liveness_is_quiet(self, engine, liveness):
        """Without bit-set rows, the matrix scan seeds each block from
        ``is_live_out`` queries; those translations must verify just as
        clean."""
        _assert_gallery_quiet(_matrix_over_liveness(engine, liveness))

    @pytest.mark.parametrize("engine", [e.name for e in ENGINE_CONFIGURATIONS])
    @pytest.mark.parametrize("liveness", ["sets", "check"])
    def test_stress_corpus_matrix_over_query_liveness_is_quiet(self, engine, liveness):
        _assert_stress_corpus_quiet(_matrix_over_liveness(engine, liveness))


# --------------------------------------------------------------------------- CLI
@pytest.fixture()
def swap_file(tmp_path):
    path = tmp_path / "swap.ir"
    path.write_text(format_function(figure3_swap_problem()))
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    path = tmp_path / "broken.ir"
    path.write_text(
        "function f() {\n"
        "  entry:\n"
        "    jump nowhere\n"
        "}\n"
    )
    return str(path)


class TestVerifyCommand:
    def test_verify_clean_file(self, swap_file, capsys):
        from repro.cli import main

        assert main(["verify", swap_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_gallery_json(self, capsys):
        from repro.cli import main

        assert main(["verify", "--gallery", "--json", "--level", "fast"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["level"] == "fast"
        assert len(payload["targets"]) >= 4
        for target in payload["targets"]:
            assert target["diagnostics"] == []

    def test_verify_broken_file_exits_nonzero(self, broken_file, capsys):
        from repro.cli import main

        assert main(["verify", broken_file]) == 1
        assert "V104" in capsys.readouterr().out

    def test_verify_no_targets_is_an_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no targets"):
            main(["verify"])

    def test_translate_with_verify_stats(self, swap_file, capsys):
        from repro.cli import main

        assert main(["translate", swap_file, "--verify", "full", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "phi" not in captured.out
        assert "verify time (ms)" in captured.err

    def test_translate_validates_by_default(self, broken_file):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no-validate"):
            main(["translate", broken_file])

    def test_no_validate_escape_hatch_on_valid_input(self, swap_file, capsys):
        from repro.cli import main

        assert main(["translate", swap_file, "--no-validate"]) == 0
        assert "phi" not in capsys.readouterr().out


# --------------------------------------------------------------------------- service
class TestServiceVerify:
    def test_throwaway_verification_is_clean(self):
        from repro.service.translator import TranslationService

        service = TranslationService("us_i")
        text = format_function(figure3_swap_problem())
        payload = service.verify(text)
        assert payload["ok"] is True and payload["errors"] == 0
        assert payload["cached"] is False and payload["match"] is None

    def test_cached_translation_cross_checked(self):
        from repro.service.translator import TranslationService

        service = TranslationService("us_i")
        text = format_function(figure3_swap_problem())
        service.translate_text(text)
        payload = service.verify(text)
        assert payload["cached"] is True and payload["match"] is True
        assert payload["ok"] is True

    def test_tampered_cache_raises_v601(self):
        from repro.service.translator import TranslationService

        service = TranslationService("us_i")
        text = format_function(figure3_swap_problem())
        result = service.translate_text(text)
        entry = service.cache.lookup(result.digest, result.fingerprint)
        entry.ir_text = "function corrupt() {\n}\n"
        payload = service.verify(text)
        assert payload["match"] is False and payload["ok"] is False
        assert "V601" in [d["code"] for d in payload["diagnostics"]]

    def test_verification_does_not_touch_warm_state(self):
        from repro.service.translator import TranslationService

        service = TranslationService("us_i")
        text = format_function(figure3_swap_problem())
        service.translate_text(text)
        before = service.cache.stats().to_payload()["entries"]
        service.verify(text)
        assert service.cache.stats().to_payload()["entries"] == before
        assert service.translate_text(text).cached is True

    def test_bogus_level_rejected(self):
        from repro.service.translator import TranslationService

        with pytest.raises(ValueError, match="verify level"):
            TranslationService("us_i").verify("function f() {\n  entry:\n    ret\n}\n", level="bogus")

    def test_daemon_verify_verb(self):
        from repro.service import ServiceClient, TranslationServer

        server = TranslationServer(engine="us_i", shards=2)
        server.serve_in_background()
        try:
            text = format_function(figure3_swap_problem())
            with ServiceClient(port=server.port) as client:
                payload = client.verify(text, level="fast")
                assert payload["ok"] is True and payload["errors"] == 0
                assert payload["shard"] == payload["shard"]  # present
                client.translate(text)
                again = client.verify(text)
                assert again["cached"] is True and again["match"] is True
                bad = client.request("verify", ir=text, level="bogus")
                assert bad["ok"] is False and "level" in bad["error"]
                digest = text_digest(text)
                assert payload["digest"] == digest
        finally:
            server.shutdown()
            server.server_close()

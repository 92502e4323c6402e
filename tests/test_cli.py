"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.ir import format_function
from repro.gallery import figure4_lost_copy_problem


@pytest.fixture()
def lost_copy_file(tmp_path):
    path = tmp_path / "lost_copy.ir"
    path.write_text(format_function(figure4_lost_copy_problem()))
    return str(path)


@pytest.fixture()
def non_ssa_file(tmp_path):
    path = tmp_path / "source.ir"
    path.write_text(
        "function accumulate(n) {\n"
        "  entry:\n"
        "    s = const 0\n"
        "    i = const 0\n"
        "    jump header\n"
        "  header:\n"
        "    c = cmp_lt i, n\n"
        "    br c, body, done\n"
        "  body:\n"
        "    s = add s, i\n"
        "    t = copy s\n"
        "    i = add i, 1\n"
        "    jump header\n"
        "  done:\n"
        "    print t\n"
        "    ret s\n"
        "}\n"
    )
    return str(path)


class TestTranslate:
    def test_translate_ssa_file(self, lost_copy_file, capsys):
        assert main(["translate", lost_copy_file, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "phi" not in captured.out
        assert "copies remaining" in captured.err

    def test_translate_with_variant(self, lost_copy_file, capsys):
        assert main(["translate", lost_copy_file, "--variant", "intersect"]) == 0
        assert "phi" not in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["sets", "bitsets", "check"])
    def test_translate_with_liveness_backend(self, lost_copy_file, capsys, backend):
        assert main([
            "translate", lost_copy_file, "--engine", "us_i", "--liveness", backend, "--stats",
        ]) == 0
        captured = capsys.readouterr()
        assert "phi" not in captured.out
        assert "engine" in captured.err

    def test_translate_non_ssa_with_pipeline(self, non_ssa_file, capsys):
        assert main([
            "translate", non_ssa_file, "--construct-ssa", "--optimize", "--abi", "--stats",
        ]) == 0
        captured = capsys.readouterr()
        assert "phi" not in captured.out
        assert "engine" in captured.err

    def test_parse_error_is_a_one_line_system_exit(self, tmp_path):
        path = tmp_path / "bad.ir"
        path.write_text("function f(a) {\n  entry:\n    x = add a, @\n    ret x\n}\n")
        with pytest.raises(SystemExit, match=r"^repro: .*bad\.ir: line 3: bad operand '@'"):
            main(["translate", str(path)])

    def test_pin_on_a_multiply_defined_variable_is_a_one_line_system_exit(self, tmp_path):
        from tests.test_pinning import _PINNED_TWICE

        path = tmp_path / "pinned.ir"
        path.write_text(_PINNED_TWICE)
        with pytest.raises(
            SystemExit, match=r"^repro: .*pinned\.ir: f:left: pinned variable 'x' \(register r1\)"
        ):
            main(["translate", str(path), "--construct-ssa"])

    def test_unknown_engine_is_a_clean_system_exit(self, lost_copy_file):
        with pytest.raises(SystemExit, match="unknown engine 'bogus'"):
            main(["translate", lost_copy_file, "--engine", "bogus"])

    def test_unknown_variant_is_a_clean_system_exit(self, lost_copy_file):
        with pytest.raises(SystemExit, match="unknown coalescing variant 'bogus'"):
            main(["translate", lost_copy_file, "--variant", "bogus"])

    def test_unknown_liveness_is_a_clean_system_exit(self, lost_copy_file):
        with pytest.raises(SystemExit, match="unknown liveness backend 'bogus'"):
            main(["translate", lost_copy_file, "--liveness", "bogus"])


class TestRunAndBenchAndList:
    def test_run(self, lost_copy_file, capsys):
        assert main(["run", lost_copy_file, "--args", "5"]) == 0
        captured = capsys.readouterr()
        assert "return: 4" in captured.out
        assert "trace : 4" in captured.out

    def test_run_without_args(self, tmp_path, capsys):
        path = tmp_path / "noargs.ir"
        path.write_text("function f() {\n  entry:\n    print 7\n    ret 7\n}\n")
        assert main(["run", str(path)]) == 0
        assert "return: 7" in capsys.readouterr().out

    def test_bench_figure5(self, capsys):
        assert main(["bench", "--figure", "5", "--scale", "0.2", "--benchmarks", "181.mcf"]) == 0
        out = capsys.readouterr().out
        assert "Intersect" in out and "sum" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "us_i_linear_intercheck_livecheck" in out
        assert "sharing" in out
        assert "164.gzip" in out

    def test_list_includes_liveness_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "liveness backends" in out
        for backend in ("sets", "bitsets", "check"):
            assert backend in out

    def test_removed_incremental_liveness_is_an_unknown_backend(self, lost_copy_file):
        with pytest.raises(SystemExit, match="unknown liveness backend 'incremental'"):
            main(["translate", lost_copy_file, "--liveness", "incremental"])

    def test_unknown_benchmark_is_a_clean_system_exit(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["bench", "--figure", "5", "--benchmarks", "nope"])


class TestShippedExample:
    def test_readme_quickstart_file_translates(self, capsys):
        """The file the README quickstart names must exist and translate."""
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "examples", "lost_copy.ir"
        )
        assert main(["translate", path, "--liveness", "bitsets"]) == 0
        assert "phi" not in capsys.readouterr().out


class TestStress:
    def test_stress_prints_the_table(self, capsys):
        assert main(["stress", "--blocks", "80,120"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "diags" in out and " fast " in out

    def test_stress_writes_output_file(self, tmp_path, capsys):
        path = tmp_path / "stress.txt"
        assert main([
            "stress", "--blocks", "80", "--verify", "full", "--output", str(path),
        ]) == 0
        capsys.readouterr()
        assert " full " in path.read_text()

    def test_stress_rejects_bad_blocks(self):
        with pytest.raises(SystemExit, match="invalid --blocks"):
            main(["stress", "--blocks", "abc"])

    @pytest.mark.parametrize("argv", [
        ["--verify", "off"],                   # would run nothing
        ["--experiment", "interference"],      # the timing lanes are gone
    ])
    def test_stress_rejects_retired_options(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stress", "--blocks", "80", *argv])
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err


class TestListJson:
    def test_list_json_is_machine_readable(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        engines = {engine["name"]: engine for engine in catalogue["engines"]}
        assert "us_i_linear_intercheck_livecheck" in engines
        us_i = engines["us_i"]
        # The negotiation fields clients key caches on.
        assert us_i["liveness"] == "bitsets"
        assert us_i["interference"] == "matrix"
        assert len(us_i["fingerprint"]) == 16
        fingerprints = {engine["fingerprint"] for engine in engines.values()}
        assert len(fingerprints) == len(engines)
        assert set(catalogue["interference_backends"]) == {"matrix", "query"}
        assert set(catalogue["liveness_backends"]) == {"sets", "bitsets", "check"}

    def test_removed_cores_are_not_listed(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        assert "cores" not in catalogue
        assert all("core" not in engine for engine in catalogue["engines"])


class TestServiceCommands:
    def test_retired_bench_serve_command_is_rejected(self, capsys):
        """The in-process throughput experiment is gone; the daemon is timed
        by perfbench's ``serve`` workload."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-serve", "--blocks", "80"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench-serve'" in capsys.readouterr().err

    def test_serve_rejects_unknown_engine(self):
        with pytest.raises(SystemExit, match="unknown engine"):
            main(["serve", "--engine", "bogus"])

    def test_request_drives_a_live_daemon(self, lost_copy_file, capsys):
        import json

        from repro.service.server import TranslationServer

        server = TranslationServer(engine="us_i", shards=1)
        server.serve_in_background()
        try:
            port = str(server.port)
            assert main(["request", "ping", "--port", port]) == 0
            assert "repro-serve" in capsys.readouterr().out

            assert main(["request", "translate", lost_copy_file, "--port", port]) == 0
            captured = capsys.readouterr()
            assert "phi" not in captured.out
            assert "cold" in captured.err

            assert main(["request", "translate", lost_copy_file, "--port", port]) == 0
            assert "cache hit" in capsys.readouterr().err

            # Each file went out as a single ``translate`` request, so the
            # repeat was served on the daemon's inline hit path.
            assert main(["request", "metrics", "--port", port]) == 0
            metrics = json.loads(capsys.readouterr().out)["metrics"]
            assert metrics["counters"].get("inline_hits_total", 0) >= 1
            assert "latency_translate" in metrics["latency"]

            assert main(["request", "stats", "--port", port]) == 0
            assert '"requests"' in capsys.readouterr().out

            assert main(["request", "flush", "--port", port]) == 0
            assert "flushed" in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()

    def test_request_sends_one_translate_per_file_and_batch_as_one_frame(
        self, lost_copy_file, tmp_path, capsys
    ):
        import json

        from repro.gallery import figure3_swap_problem
        from repro.service.server import TranslationServer

        swap_file = tmp_path / "swap.ir"
        swap_file.write_text(format_function(figure3_swap_problem()))
        files = [lost_copy_file, str(swap_file)]

        def requests_total(port):
            assert main(["request", "metrics", "--port", port]) == 0
            return json.loads(capsys.readouterr().out)["metrics"]["counters"]["requests_total"]

        server = TranslationServer(engine="us_i", shards=1)
        server.serve_in_background()
        try:
            port = str(server.port)
            before = requests_total(port)
            assert main(["request", "translate", *files, "--port", port]) == 0
            per_file = capsys.readouterr()
            # Two translate frames, plus the metrics request itself.
            assert requests_total(port) - before == 3

            before = requests_total(port)
            assert main(["request", "translate_batch", *files, "--port", port]) == 0
            batched = capsys.readouterr()
            assert requests_total(port) - before == 2

            # Same IR, in input order, and the batch found both in the cache.
            assert batched.out == per_file.out
            notes = batched.err.splitlines()
            assert [note.split(":")[0] for note in notes] == [f"# {path}" for path in files]
            assert all("cache hit" in note for note in notes)
        finally:
            server.shutdown()
            server.server_close()

    def test_removed_prefilter_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--parallel-coalescing", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --parallel-coalescing" in capsys.readouterr().err

    def test_removed_mode_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--mode", "thread"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_request_translate_needs_a_file(self):
        with pytest.raises(SystemExit, match="needs at least one IR file"):
            main(["request", "translate", "--port", "1"])

    def test_request_reports_connection_failure_cleanly(self):
        with pytest.raises(SystemExit, match="repro request"):
            main(["request", "ping", "--port", "1", "--timeout", "0.2"])


class TestInterferenceFlag:
    def test_translate_with_each_interference_backend(self, lost_copy_file, capsys):
        outputs = []
        for backend in ("matrix", "query"):
            assert main([
                "translate", lost_copy_file, "--engine", "us_i",
                "--interference", backend,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_translate_rejects_unknown_interference(self, lost_copy_file, capsys):
        with pytest.raises(SystemExit):
            main(["translate", lost_copy_file, "--interference", "bogus"])

    def test_removed_incremental_interference_is_rejected(self, lost_copy_file, capsys):
        with pytest.raises(SystemExit):
            main(["translate", lost_copy_file, "--interference", "incremental"])
        assert "invalid choice: 'incremental'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, core", [("translate", "flat"), ("verify", "objects")])
    def test_removed_core_option_is_rejected(self, lost_copy_file, capsys, command, core):
        with pytest.raises(SystemExit) as excinfo:
            main([command, lost_copy_file, "--core", core])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --core" in capsys.readouterr().err

    def test_list_shows_interference_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "interference backends (--interference):" in out
        for backend in ("matrix", "query"):
            assert backend in out

"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import NULL_RECORDER, get_default_recorder


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["not-a-command"])

    def test_server_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--server", "bogus", "fig2"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.server == "emlSGX-PM"
        assert not args.full


#: sha256 of each quick figure's whole stdout: every simulated number
#: the figure prints.  A change that moves one must say why and
#: re-record the file.
FIGURES = json.loads(
    (Path(__file__).parent / "fixtures" / "golden" / "figures.json").read_text()
)


def _figure(capsys, name: str) -> str:
    assert main([name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FIGURES[name], name
    return out


class TestCommands:
    def test_fig2(self, capsys):
        out = _figure(capsys, "fig2")
        assert "pm-dax" in out and "seqread" in out

    def test_fig6(self, capsys):
        out = _figure(capsys, "fig6")
        assert "sgx-romulus" in out and "scone" in out

    def test_fig7_quick(self, capsys):
        assert "save x" in _figure(capsys, "fig7")

    def test_fig8(self, capsys):
        assert "overhead" in _figure(capsys, "fig8")

    def test_fig9_quick(self, capsys):
        out = _figure(capsys, "fig9")
        assert "resilient" in out and "non-resilient" in out

    def test_fig10_quick(self, capsys):
        assert "state:" in _figure(capsys, "fig10")

    def test_tcb(self, capsys):
        assert main(["tcb"]) == 0
        assert "reduction" in capsys.readouterr().out

    def test_fed(self, capsys, tmp_path):
        out_path = tmp_path / "fed.json"
        rc = main(
            ["fed", "--clients", "3", "--rounds", "2",
             "--out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "federated rounds: 2/2 committed" in out
        import json

        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert len(payload["rounds"]) == 2
        assert all(
            len(r["merkle_root"]) == 64 for r in payload["rounds"]
        )

    def test_train(self, capsys):
        assert main(["train", "--iterations", "5", "--rows", "128"]) == 0
        out = capsys.readouterr().out
        assert "trained 5 iterations" in out
        assert "PM mirror at iteration 5" in out

    def test_train_on_sgx_server(self, capsys):
        assert (
            main(
                [
                    "--server", "sgx-emlPM",
                    "train", "--iterations", "3", "--rows", "128",
                ]
            )
            == 0
        )
        assert "sgx-emlPM" in capsys.readouterr().out


class TestCrashtest:
    def test_sampled_run_reports_clean(self, capsys):
        rc = main(
            ["crashtest", "--samples", "6", "--seed", "1",
             "--workload", "train"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "crash-schedule exploration" in out
        assert "all hold" in out

    def test_json_format_is_machine_readable(self, capsys):
        rc = main(
            ["crashtest", "--samples", "6", "--seed", "1",
             "--workload", "train", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["mode"] == "sampled"
        assert doc["points_explored"] >= 6
        assert doc["violations"] == []
        names = {w["name"] for w in doc["workloads"]}
        assert names == {"train"}

    def test_list_sites_prints_registry(self, capsys):
        assert main(["crashtest", "--list-sites"]) == 0
        out = capsys.readouterr().out
        assert "pm.store" in out
        assert "crypto.unseal" in out
        assert "crash/flip" in out

    def test_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crashtest", "--workload", "bogus"])


class TestServeBench:
    SMALL = [
        "serve-bench", "--replicas", "2", "--batch-max", "4",
        "--requests", "24", "--seed", "3",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.replicas == 4
        assert args.batch_max == 16
        assert args.format == "text"
        assert args.queue_depth == 0

    def test_small_run_exits_zero(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "serve-bench on emlSGX-PM" in out
        assert "sequential" in out and "batched" in out and "scaled" in out

    def test_json_format_is_machine_readable(self, capsys):
        assert main(self.SMALL + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "plinius-serving-load/1"
        assert doc["criteria"]["batch_speedup"] > 1.0
        names = [c["name"] for c in doc["configs"]]
        assert names == ["sequential", "batched", "scaled"]
        for config in doc["configs"]:
            assert config["completed"] + config["rejected"] == 24

    def test_out_writes_report_file(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        assert main(self.SMALL + ["--out", str(path)]) == 0
        capsys.readouterr()  # text report still printed
        doc = json.loads(path.read_text())
        assert doc["schema"] == "plinius-serving-load/1"

    def test_batch16_gate_passes_at_acceptance_size(self, capsys):
        # The ISSUE acceptance command (smaller request count): the
        # >= 3x speedup gate is armed whenever batch_max >= 16.
        rc = main(
            ["serve-bench", "--replicas", "4", "--batch-max", "16",
             "--requests", "48", "--format", "json"]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        doc = json.loads(captured.out)
        assert doc["criteria"]["batch_speedup"] >= 3.0

    def test_trace_writes_serve_spans(self, tmp_path, capsys):
        path = tmp_path / "serve-trace.json"
        assert main(self.SMALL + ["--trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "serve.batch" in names
        assert "trace:" in capsys.readouterr().out

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--format", "yaml"])


class TestReportCommand:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(
            ["serve-bench", "--replicas", "2", "--batch-max", "4",
             "--requests", "8", "--trace", str(path)]
        ) == 0
        return path

    def test_text_report_from_trace(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro report (plinius-report/1)" in out
        assert "causal traces:" in out
        assert "serve.request" in out

    def test_json_report_to_file(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        out_path = tmp_path / "report.json"
        assert main(
            ["report", str(path), "--format", "json",
             "--out", str(out_path)]
        ) == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "plinius-report/1"
        assert report["traces"]["count"] == 3 * 8
        assert all(t["roots"] == 1 for t in report["traces"]["trees"])

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_non_trace_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"not": "a trace"}')
        assert main(["report", str(path)]) == 2

    def test_crashtest_flight_dir_flag_parses(self):
        args = build_parser().parse_args(
            ["crashtest", "--flight-dir", "/tmp/fl"]
        )
        assert args.flight_dir == "/tmp/fl"
        assert build_parser().parse_args(["crashtest"]).flight_dir is None


class TestFormatJson:
    def test_tcb_json(self, capsys):
        assert main(["tcb", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc  # structure asserted in the tcb unit tests

    def test_tcb_trace_plus_json(self, tmp_path, capsys):
        """--trace appends its summary line after the JSON document."""
        path = tmp_path / "tcb.json"
        assert main(["tcb", "--format", "json", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        body, _, trace_line = out.rpartition("trace: ")
        doc = json.loads(body)
        assert doc
        assert str(path) in trace_line
        assert path.exists()


class TestTraceFlag:
    @staticmethod
    def _load_trace(path):
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must contain events"
        for event in events:
            assert "ph" in event and "pid" in event
        return {e.get("name") for e in events}

    def test_train_trace_writes_chrome_json(self, tmp_path, capsys):
        path = tmp_path / "train.json"
        assert (
            main(
                [
                    "train", "--iterations", "3", "--rows", "128",
                    "--trace", str(path),
                ]
            )
            == 0
        )
        names = self._load_trace(path)
        assert "train.iteration" in names
        assert "mirror.encrypt" in names
        assert "mirror.write" in names
        out = capsys.readouterr().out
        assert "trained 3 iterations" in out
        assert "trace:" in out and str(path) in out

    def test_fig7_trace_covers_save_and_restore(self, tmp_path, capsys):
        path = tmp_path / "fig7.json"
        assert main(["fig7", "--trace", str(path)]) == 0
        names = self._load_trace(path)
        assert "mirror.out" in names and "mirror.in" in names
        assert "ckpt.encrypt" in names  # SSD baseline traced too
        assert "save x" in capsys.readouterr().out

    def test_trace_flag_restores_default_recorder(self, tmp_path):
        assert get_default_recorder() is NULL_RECORDER
        path = tmp_path / "fig8.json"
        assert main(["fig8", "--trace", str(path)]) == 0
        assert get_default_recorder() is NULL_RECORDER
        assert path.exists()


def _load_benchmark_script(name: str):
    """Import ``benchmarks/<name>.py`` (scripts, not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWallclockScripts:
    def test_checker_refuses_a_baseline_of_another_schema(self):
        checker = _load_benchmark_script("check_wallclock_regression")
        report = {"schema": 5}
        failures = checker.check({"schema": 3}, report, tolerance=0.1)
        assert len(failures) == 1
        assert "schema 3" in failures[0] and "schema 5" in failures[0]
        assert checker.check({"schema": 5}, report, tolerance=0.1) == []

    def test_checker_gates_mirror_seconds_like_for_like(self):
        checker = _load_benchmark_script("check_wallclock_regression")
        row = {
            "layer_count": 13, "repeats": 3,
            "out_seconds": 0.080, "in_seconds": 0.025,
        }
        host = {"cpu_count": 2, "crypto_backend": "cryptography"}
        baseline = {"schema": 6, "smoke": False, "host": host, "mirror": [row]}
        assert checker.check(baseline, baseline, tolerance=0.1) == []

        slower = {**baseline, "mirror": [{**row, "in_seconds": 0.030}]}
        failures = checker.check(baseline, slower, tolerance=0.1)
        assert len(failures) == 1
        assert "mirror[13 layers].in_seconds" in failures[0]
        elsewhere = {**slower, "host": {**host, "cpu_count": 64}}
        assert checker.check(baseline, elsewhere, tolerance=0.1) == []

        # A row written by an older harness has neither cell.
        old_keys = {"layer_count": 13, "repeats": 3, "serial_out_seconds": 0.08}
        failures = checker.check(
            baseline, {**baseline, "mirror": [old_keys]}, tolerance=0.1
        )
        assert len(failures) == 2 and "out_seconds" in failures[0]

    def test_checker_knows_train_step_and_refuses_a_shrunk_history(self):
        checker = _load_benchmark_script("check_wallclock_regression")
        step = {
            "n_conv_layers": 1, "filters": 2, "batch": 4, "iters": 60,
            "step_ms": 0.6, "layers": [{"index": 0, "kind": "softmax"}],
        }
        rows = [{"label": "parent"}, {"label": "this PR"}]
        host = {"cpu_count": 2, "crypto_backend": "cryptography"}
        baseline = {
            "schema": 6, "smoke": True, "host": host,
            "train_step": [step], "history": rows,
        }
        report = {
            **baseline,
            "history": rows + [{"label": "next"}],
        }
        assert checker.check(baseline, report, tolerance=0.1) == []

        shrunk = {**report, "history": rows[:1]}
        rewritten = {**report, "history": [{"label": "other"}, rows[1]]}
        for bad in (shrunk, rewritten):
            failures = checker.check(baseline, bad, tolerance=0.1)
            assert len(failures) == 1 and "append-only" in failures[0]

        slower = {**report, "train_step": [{**step, "step_ms": 0.7}]}
        failures = checker.check(baseline, slower, tolerance=0.1)
        assert len(failures) == 1 and "train_step[batch 4]" in failures[0]
        # ... but only like-for-like: another host is not comparable.
        elsewhere = {**slower, "host": {**host, "cpu_count": 64}}
        assert checker.check(baseline, elsewhere, tolerance=0.1) == []

        hollow = {**report, "train_step": [{**step, "layers": []}]}
        failures = checker.check(baseline, hollow, tolerance=0.1)
        assert len(failures) == 1 and "per-layer rows" in failures[0]

    def test_checker_knows_crypto_per_call(self):
        checker = _load_benchmark_script("check_wallclock_regression")
        row = {
            "size": 3072, "iters": 400, "seal_us": 2.5, "unseal_us": 2.6,
            "seal_into_us": 2.7, "unseal_from_us": 3.1,
        }
        session = {
            "size": 3072, "iters": 400, "seal_response_us": 7.0,
            "open_request_into_us": 5.0, "roundtrip_us": 12.0,
        }
        host = {"cpu_count": 2, "crypto_backend": "cryptography"}
        baseline = {
            "schema": 7, "smoke": True, "host": host,
            "crypto_per_call": {"engine": [row], "session": session},
        }
        assert checker.check(baseline, baseline, tolerance=0.1) == []

        # From schema 7 on the section is required, whole.
        absent = {k: v for k, v in baseline.items() if k != "crypto_per_call"}
        failures = checker.check(baseline, absent, tolerance=0.1)
        assert failures and all("crypto_per_call" in f for f in failures)
        hollow = {
            **baseline,
            "crypto_per_call": {
                "engine": [{**row, "unseal_from_us": 0.0}],
                "session": {**session, "seal_response_us": None},
            },
        }
        failures = checker.check(baseline, hollow, tolerance=0.1)
        assert len(failures) == 2
        assert "engine[3072 B].unseal_from_us" in failures[0]
        assert "session[3072 B].seal_response_us" in failures[1]

        # The microseconds gate like-for-like only: same host, same
        # smoke flag, same iteration count.
        slower = {
            **baseline,
            "crypto_per_call": {
                "engine": [{**row, "seal_us": 2.9}],
                "session": {**session, "open_request_into_us": 12.0},
            },
        }
        failures = checker.check(baseline, slower, tolerance=0.1)
        assert len(failures) == 2
        assert "engine[3072 B].seal_us: 2.90 us > 2.50 us" in failures[0]
        assert "session[3072 B].open_request_into_us" in failures[1]
        elsewhere = {**slower, "host": {**host, "cpu_count": 64}}
        assert checker.check(baseline, elsewhere, tolerance=0.1) == []
        other_iters = {
            **baseline,
            "crypto_per_call": {
                "engine": [{**row, "iters": 2000, "seal_us": 2.9}],
                "session": session,
            },
        }
        assert checker.check(baseline, other_iters, tolerance=0.1) == []

    def test_checker_knows_attest_session(self):
        checker = _load_benchmark_script("check_wallclock_regression")
        session = {
            "size": 3072, "iters": 400, "seal_response_us": 7.0,
            "open_request_into_us": 5.0, "roundtrip_us": 12.0,
        }
        section = {
            "engine": [{"size": 64, "iters": 400, "seal_us": 2.0,
                        "unseal_us": 2.0, "seal_into_us": 2.0,
                        "unseal_from_us": 2.0}],
            "session": session,
            "attest_session_iters": 40,
            "attest_session_us": 200.0,
        }
        host = {"cpu_count": 2, "crypto_backend": "cryptography"}
        baseline = {
            "schema": 10, "smoke": True, "host": host,
            "crypto_per_call": section,
        }
        assert checker.check(baseline, baseline, tolerance=0.1) == []

        # From schema 10 on the cell is required ...
        hollow = {
            **baseline,
            "crypto_per_call": {**section, "attest_session_us": None},
        }
        failures = checker.check(baseline, hollow, tolerance=0.1)
        assert len(failures) == 1 and "attest_session_us" in failures[0]
        older = {**baseline, "schema": 9}
        assert checker.check(
            older, {**hollow, "schema": 9}, tolerance=0.1
        ) == []

        # ... and gated like-for-like: same host, same iteration count.
        slower = {
            **baseline,
            "crypto_per_call": {**section, "attest_session_us": 230.0},
        }
        failures = checker.check(baseline, slower, tolerance=0.1)
        assert len(failures) == 1
        assert "attest_session_us: 230.00 us > 200.00 us" in failures[0]
        elsewhere = {**slower, "host": {**host, "cpu_count": 64}}
        assert checker.check(baseline, elsewhere, tolerance=0.1) == []
        other_iters = {
            **baseline,
            "crypto_per_call": {
                **section, "attest_session_iters": 200,
                "attest_session_us": 230.0,
            },
        }
        assert checker.check(baseline, other_iters, tolerance=0.1) == []

    def test_checker_knows_serve_batch(self):
        checker = _load_benchmark_script("check_wallclock_regression")
        section = {
            "engine": [{"size": 64, "iters": 400, "seal_us": 2.0,
                        "unseal_us": 2.0, "seal_into_us": 2.0,
                        "unseal_from_us": 2.0}],
            "session": {"size": 3072, "iters": 400, "seal_response_us": 7.0,
                        "open_request_into_us": 5.0, "roundtrip_us": 12.0},
            "attest_session_iters": 40,
            "attest_session_us": 200.0,
        }
        batch = {"requests": 16, "iters": 200, "us_per_request": 24.0}
        host = {"cpu_count": 2, "crypto_backend": "cryptography"}
        baseline = {
            "schema": 11, "smoke": True, "host": host,
            "crypto_per_call": section, "serve_batch": batch,
        }
        assert checker.check(baseline, baseline, tolerance=0.1) == []

        # From schema 11 on the section is required ...
        absent = {k: v for k, v in baseline.items() if k != "serve_batch"}
        failures = checker.check(baseline, absent, tolerance=0.1)
        assert failures == ["serve_batch.us_per_request is not a positive figure"]
        older = {**baseline, "schema": 10}
        assert checker.check(older, {**absent, "schema": 10}, tolerance=0.1) == []

        # ... and gated like-for-like: same host, same iteration count.
        slower = {**baseline, "serve_batch": {**batch, "us_per_request": 27.0}}
        failures = checker.check(baseline, slower, tolerance=0.1)
        assert failures == ["serve_batch.us_per_request: 27.00 us > 24.00 us * 1.10"]
        elsewhere = {**slower, "host": {**host, "cpu_count": 64}}
        assert checker.check(baseline, elsewhere, tolerance=0.1) == []
        other_iters = {
            **baseline,
            "serve_batch": {**batch, "iters": 1000, "us_per_request": 27.0},
        }
        assert checker.check(baseline, other_iters, tolerance=0.1) == []

    def test_label_is_refused_on_a_smoke_run(self, capsys):
        bench = _load_benchmark_script("bench_wallclock")
        with pytest.raises(SystemExit) as exc:
            bench.main(["--smoke", "--label", "x"])
        assert exc.value.code == 2
        assert "full runs only" in capsys.readouterr().err

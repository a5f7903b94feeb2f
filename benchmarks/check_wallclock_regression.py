"""Gate wall-clock regressions against the committed baseline.

Compares a freshly generated wall-clock report (typically a CI smoke
run, produced with ``bench_wallclock.py --smoke --out ...``) against
``BENCH_wallclock.json`` at the repository root.

A report is only ever compared against a baseline of the same
``schema``; a mismatch fails up front naming both (regenerate the
baseline with the harness that wrote the report).

Wall-clock numbers are host-dependent, so two tiers of checks apply:

* **same-host ratios** hold on every host: the batched-forward speedup
  (per-request loop vs. one batched call) keeps its floor of 3.0 and,
  when baseline and report used the same measurement knobs, stays
  within tolerance of the baseline ratio; and the flight-recorder
  overhead keeps its 0.5% ceiling;
* **absolute times** — the mirror save / restore seconds, the
  ``train_step`` milliseconds, the ``crypto_per_call`` microseconds
  (the attested-session setup included) and the ``serve_batch``
  microseconds per request —
  are compared only like-for-like: same host signature (cpu count +
  crypto backend) and same measurement knobs (smoke flag, repeats /
  iters).  CI runners differ from the machine that wrote the committed
  baseline, so this tier usually applies to local runs.

Every ``mirror`` row must carry positive ``out_seconds`` and
``in_seconds`` (schema 8's keys), every ``train_step`` entry a positive
``step_ms`` and its per-layer rows; from schema 7 on the
``crypto_per_call`` section must be present with a positive figure in
every cell (from schema 10 on, ``attest_session_us`` among them); from
schema 11 on ``serve_batch`` must carry a positive ``us_per_request``;
and the ``history`` list is append-only: a report whose history does
not start with every row of the baseline's fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --smoke --out /tmp/r.json
    python benchmarks/check_wallclock_regression.py --report /tmp/r.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_wallclock.json"


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _mirror_by_layers(payload: dict) -> dict:
    return {entry["layer_count"]: entry for entry in payload.get("mirror", [])}


def _train_steps_by_shape(payload: dict) -> dict:
    return {
        (e.get("n_conv_layers"), e.get("filters"), e.get("batch")): e
        for e in payload.get("train_step", [])
    }


#: The timed cells of one ``mirror`` row.
_MIRROR_KEYS = ("out_seconds", "in_seconds")
#: The engine cells of one ``crypto_per_call`` row, and the session's.
_ENGINE_CALL_KEYS = ("seal_us", "unseal_us", "seal_into_us", "unseal_from_us")
_SESSION_CALL_KEYS = ("seal_response_us", "open_request_into_us")


def _microsecond_cells(payload: dict) -> dict:
    """``(label, iters) -> microseconds`` for every ``crypto_per_call``
    cell and the ``serve_batch`` one; ``None`` where a cell is missing."""
    section = payload.get("crypto_per_call") or {}
    session = section.get("session") or {}
    rows = [
        (f"engine[{row.get('size')} B]", row, _ENGINE_CALL_KEYS)
        for row in section.get("engine", [])
    ] + [(f"session[{session.get('size')} B]", session, _SESSION_CALL_KEYS)]
    cells = {
        (f"crypto_per_call {label}.{key}", row.get("iters")): row.get(key)
        for label, row, keys in rows
        for key in keys
    }
    if payload.get("schema", 0) >= 10:
        cells[
            ("crypto_per_call attest_session_us", section.get("attest_session_iters"))
        ] = section.get("attest_session_us")
    if payload.get("schema", 0) >= 11:
        batch = payload.get("serve_batch") or {}
        knobs = (batch.get("requests"), batch.get("iters"))
        cells[("serve_batch.us_per_request", knobs)] = batch.get("us_per_request")
    return cells


def _host_signature(payload: dict) -> tuple:
    host = payload.get("host", {})
    return (host.get("cpu_count"), host.get("crypto_backend"))


def check(baseline: dict, report: dict, tolerance: float) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    if baseline.get("schema") != report.get("schema"):
        return [
            f"baseline is schema {baseline.get('schema')!r} but the report "
            f"is schema {report.get('schema')!r}: regenerate the baseline "
            "with the harness that wrote the report"
        ]
    failures = []
    floor = 1.0 - tolerance

    # The forward speedup is noisy at smoke repeat counts, so the tight
    # ratio gate only applies when baseline and report used the same
    # measurement knobs.  Cross-config runs fall back to the harness's
    # own host-independent target floor.
    got = report.get("forward", {}).get("speedup")
    if got is not None:
        want = baseline.get("forward", {}).get("speedup")
        if baseline.get("smoke") == report.get("smoke") and want is not None:
            if got < want * floor:
                failures.append(
                    f"forward.speedup: {got:.3f} < {want:.3f} * {floor:.2f}"
                )
        else:
            target = report.get("criteria", {}).get(
                "forward_batch32_speedup_target", 1.0
            )
            if got < target:
                failures.append(
                    f"forward.speedup: {got:.3f} < harness target {target:.2f}"
                )

    # Flight-recorder overhead: the always-on ring must stay within its
    # 0.5% budget on the mirror hot path.  The budget is absolute (a
    # ratio of same-host measurements), but the hook/cycle timings still
    # jitter on loaded CI runners, so a slice of the tolerance is added
    # as percentage-point headroom (+1pp at the default 0.10); run with
    # --tolerance 0 locally for the true gate.
    flight = report.get("flight_overhead")
    if flight is not None:
        got = flight.get("overhead_pct")
        target = report.get("criteria", {}).get(
            "flight_overhead_pct_target", 0.5
        )
        if got is None:
            failures.append("flight_overhead section lacks overhead_pct")
        elif got > target + 10.0 * tolerance:
            failures.append(
                f"flight_overhead.overhead_pct: {got:.3f}% > "
                f"{target:.2f}% + {10.0 * tolerance:.1f}pp headroom"
            )
        if flight.get("flight_events", 0) <= 0:
            failures.append(
                "flight_overhead measured zero ring events — the "
                "always-on path did not run"
            )

    for entry in report.get("mirror", []):
        for key in _MIRROR_KEYS:
            if not (entry.get(key) or 0.0) > 0.0:
                failures.append(
                    f"mirror[{entry.get('layer_count')} layers] lacks a "
                    f"positive {key}"
                )

    for entry in report.get("train_step", []):
        if not entry.get("step_ms", 0.0) > 0.0 or not entry.get("layers"):
            failures.append(
                f"train_step[batch {entry.get('batch')}] lacks a positive "
                "step_ms or its per-layer rows"
            )

    if report.get("schema", 0) >= 7:
        if not report.get("crypto_per_call", {}).get("engine"):
            failures.append("crypto_per_call section lacks its engine rows")
        for (label, _iters), got in _microsecond_cells(report).items():
            if not (got or 0.0) > 0.0:
                failures.append(f"{label} is not a positive figure")

    kept = baseline.get("history", [])
    if report.get("history", [])[: len(kept)] != kept:
        failures.append(
            f"history is append-only: the report does not start with the "
            f"baseline's {len(kept)} row(s)"
        )

    # Absolute times: only meaningful like-for-like.
    comparable = (
        _host_signature(baseline) == _host_signature(report)
        and baseline.get("smoke") == report.get("smoke")
    )
    if comparable:
        ceiling = 1.0 + tolerance
        base_mirror = _mirror_by_layers(baseline)
        for layers, entry in _mirror_by_layers(report).items():
            base = base_mirror.get(layers)
            if base is None or base.get("repeats") != entry.get("repeats"):
                continue
            for key in _MIRROR_KEYS:
                got, want = entry.get(key), base.get(key)
                if got is None or want is None:
                    continue
                if got > want * ceiling:
                    failures.append(
                        f"mirror[{layers} layers].{key}: {got * 1e3:.2f} ms > "
                        f"{want * 1e3:.2f} ms * {ceiling:.2f}"
                    )
        base_steps = _train_steps_by_shape(baseline)
        for shape, entry in _train_steps_by_shape(report).items():
            base = base_steps.get(shape)
            if base is None or base.get("iters") != entry.get("iters"):
                continue
            got, want = entry["step_ms"], base["step_ms"]
            if got > want * ceiling:
                failures.append(
                    f"train_step[batch {shape[2]}].step_ms: {got:.2f} ms > "
                    f"{want:.2f} ms * {ceiling:.2f}"
                )
        # Cells are keyed by (label, iters): another iteration count is
        # another measurement and is not compared.
        base_cells = _microsecond_cells(baseline)
        for cell, got in _microsecond_cells(report).items():
            want = base_cells.get(cell)
            if got and want and got > want * ceiling:
                failures.append(
                    f"{cell[0]}: {got:.2f} us > "
                    f"{want:.2f} us * {ceiling:.2f}"
                )
    return failures


def check_serving(report: dict) -> list:
    """Validate a ``serve-bench`` JSON report against its floors.

    Serving numbers are pure simulated time, so unlike the wall-clock
    sections they are host-independent: the floors are absolute, no
    committed baseline needed.
    """
    failures = []
    if report.get("schema") != "plinius-serving-load/1":
        failures.append(
            f"unexpected serving report schema {report.get('schema')!r}"
        )
        return failures
    criteria = report.get("criteria", {})
    for got_key, target_key in (
        ("batch_speedup", "batch_speedup_target"),
        ("replica_scaling", "replica_scaling_target"),
    ):
        got, want = criteria.get(got_key), criteria.get(target_key)
        if got is None or want is None:
            failures.append(f"serving criteria missing {got_key}")
        elif got < want:
            failures.append(
                f"serving.{got_key}: {got:.3f} < floor {want:.3f}"
            )
    n_requests = report.get("n_requests")
    for config in report.get("configs", []):
        answered = config.get("completed", 0) + config.get("rejected", 0)
        if n_requests is not None and answered != n_requests:
            failures.append(
                f"serving config {config.get('name')!r}: "
                f"{answered} of {n_requests} requests accounted for"
            )
        p50, p99 = config.get("p50_latency_s"), config.get("p99_latency_s")
        if p50 is not None and p99 is not None and p99 < p50:
            failures.append(
                f"serving config {config.get('name')!r}: p99 < p50"
            )
        p999 = config.get("p999_latency_s")
        if p99 is not None and p999 is not None and p999 < p99:
            failures.append(
                f"serving config {config.get('name')!r}: p999 < p99"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline JSON (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="freshly generated wall-clock report JSON to validate",
    )
    parser.add_argument(
        "--serving-report",
        type=Path,
        default=None,
        help="serve-bench JSON report to gate (host-independent floors; "
        "no baseline involved)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional regression (default: 0.10 = 10%%)",
    )
    args = parser.parse_args(argv)
    if args.report is None and args.serving_report is None:
        parser.error("pass --report and/or --serving-report")

    if args.serving_report is not None:
        serving = _load(args.serving_report)
        failures = check_serving(serving)
        criteria = serving.get("criteria", {})
        print(
            f"serving:  schema {serving.get('schema')}, "
            f"batch_speedup {criteria.get('batch_speedup', 0.0):.2f}x, "
            f"replica_scaling {criteria.get('replica_scaling', 0.0):.2f}x"
        )
        if failures:
            print(
                f"\nFAIL — {len(failures)} serving floor(s) broken:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        if args.report is None:
            print("\nOK — serving floors hold")
            return 0

    baseline = _load(args.baseline)
    report = _load(args.report)
    print(
        f"baseline: schema {baseline.get('schema')}, "
        f"host {_host_signature(baseline)}, smoke={baseline.get('smoke')}"
    )
    print(
        f"report:   schema {report.get('schema')}, "
        f"host {_host_signature(report)}, smoke={report.get('smoke')}"
    )

    failures = check(baseline, report, args.tolerance)
    if failures:
        print(f"\nFAIL — {len(failures)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nOK — no regressions beyond {args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

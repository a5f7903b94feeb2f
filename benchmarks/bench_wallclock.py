"""Wall-clock hot-path benchmark — emits the perf-regression baseline.

Unlike the figure benchmarks (simulated seconds), this measures *real*
elapsed time: mirror save/restore on the Fig. 7 model sizes, the
batched vs. per-request inference kernels, the flight recorder's
overhead on the mirror hot path, one training step (whole and per
layer), one Fig. 6 SPS point at two transaction sizes, and the fixed
cost of one AEAD call through the engine and the inference session
and of one mutually attested session setup.
Writes ``BENCH_wallclock.json`` at the repo root, carrying the
committed file's append-only ``history`` forward.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # full run
    PYTHONPATH=src python benchmarks/bench_wallclock.py --smoke   # CI (<60 s)
    PYTHONPATH=src python benchmarks/bench_wallclock.py --label "PR 13"
                                              # full run + a history row
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.results import format_table
from repro.bench.wallclock import (
    BASELINE_FILENAME,
    load_baseline,
    run_wallclock,
    write_baseline,
)


def _print_report(report) -> None:
    print(
        f"\nWall-clock hot paths — backend={report.crypto_backend}, "
        f"cpu_count={report.cpu_count}"
        + (" [smoke]" if report.smoke else "")
    )
    print("\nMirror save/restore:")
    print(
        format_table(
            ["layers", "model MB", "buffers", "out ms", "in ms"],
            [
                [
                    r.layer_count,
                    f"{r.model_bytes / (1 << 20):.1f}",
                    r.buffers,
                    f"{r.out_seconds * 1e3:.1f}",
                    f"{r.in_seconds * 1e3:.1f}",
                ]
                for r in report.mirror
            ],
        )
    )
    fw = report.forward
    print("\nInference kernels (per-request loop vs. batched, arena on/off):")
    print(
        format_table(
            [
                "batch", "per-req ms", "batched ms", "speedup",
                "fresh-arena ms", "arena x",
            ],
            [
                [
                    p.batch,
                    f"{p.per_request_seconds * 1e3:.2f}",
                    f"{p.batched_seconds * 1e3:.2f}",
                    f"{p.speedup:.2f}",
                    f"{p.fresh_arena_seconds * 1e3:.2f}",
                    f"{p.arena_speedup:.2f}",
                ]
                for p in fw.points
            ],
        )
    )
    fl = report.flight_overhead
    print("\nFlight-recorder overhead (mirror save+restore cycle):")
    print(
        format_table(
            ["null ms", "flight ms", "overhead %", "ring events"],
            [
                [
                    f"{fl.null_seconds * 1e3:.2f}",
                    f"{fl.flight_seconds * 1e3:.2f}",
                    f"{fl.overhead_pct:.3f}",
                    fl.flight_events,
                ]
            ],
        )
    )
    for step in report.train_step:
        print(
            f"\nTraining step, {step.n_conv_layers} conv x {step.filters} "
            f"filters at batch {step.batch}: {step.step_ms:.2f} ms "
            f"(median of {step.iters})"
        )
        print(
            format_table(
                ["layer", "kind", "forward ms", "backward ms"],
                [
                    [
                        layer.index,
                        layer.kind,
                        f"{layer.forward_ms:.3f}",
                        f"{layer.backward_ms:.3f}",
                    ]
                    for layer in step.layers
                ],
            )
        )
        print(f"update (SGD, every layer): {step.update_ms:.3f} ms")
    print("\nFig. 6 SPS point (SGX-Romulus, CLFLUSHOPT, 2048 swaps):")
    print(
        format_table(
            ["swaps/tx", "repeats", "best ms"],
            [[p.tx_size, p.repeats, f"{p.seconds * 1e3:.1f}"] for p in report.sps],
        )
    )
    per_call = report.crypto_per_call
    print("\nCrypto cost per call (median us; engine entry points, fixed IV):")
    print(
        format_table(
            ["bytes", "calls", "seal", "unseal", "seal_into", "unseal_from"],
            [
                [
                    p.size, p.iters, f"{p.seal_us:.2f}", f"{p.unseal_us:.2f}",
                    f"{p.seal_into_us:.2f}", f"{p.unseal_from_us:.2f}",
                ]
                for p in per_call.engine
            ],
        )
    )
    session = per_call.session
    print(
        f"InferenceSession at {session.size} B (median of {session.iters}): "
        f"open_request_into {session.open_request_into_us:.2f} us + "
        f"seal_response {session.seal_response_us:.2f} us = "
        f"{session.roundtrip_us:.2f} us per served request"
    )
    print(
        f"establish_mutual_session (median of {per_call.attest_session_iters}): "
        f"{per_call.attest_session_us:.1f} us per attested session"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced-scale run for CI (<60 s); does not overwrite the baseline "
        "unless --out is given",
    )
    parser.add_argument(
        "--layers",
        type=int,
        nargs="+",
        default=None,
        help="Fig. 7 layer counts to sweep (default: 1 5 13; smoke: 1)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"baseline JSON path (default: <repo>/{BASELINE_FILENAME}; "
        "smoke runs skip writing unless set)",
    )
    parser.add_argument(
        "--label",
        default=None,
        help="append this run to the baseline's history list under this "
        "label (full runs only)",
    )
    args = parser.parse_args(argv)
    if args.label is not None and args.smoke:
        parser.error("--label records a history row: full runs only")

    report = run_wallclock(
        smoke=args.smoke,
        layer_counts=tuple(args.layers) if args.layers else None,
    )
    _print_report(report)

    out = args.out
    if out is None and not args.smoke:
        out = REPO_ROOT / BASELINE_FILENAME
    if out is not None:
        committed = load_baseline(str(REPO_ROOT / BASELINE_FILENAME)) or {}
        payload = write_baseline(
            report, str(out), committed.get("history", ()), args.label
        )
        print(
            f"\nbaseline written to {out} "
            f"({len(payload['history'])} history rows)"
        )
        criteria = payload["criteria"]
        print(
            "criteria: "
            f"forward@32 x{criteria['forward_batch32_speedup']} "
            f"(target {criteria['forward_batch32_speedup_target']}), "
            f"flight {criteria['flight_overhead_pct']}% "
            f"(target {criteria['flight_overhead_pct_target']}%)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

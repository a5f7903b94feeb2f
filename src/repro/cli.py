"""Command-line interface: ``python -m repro <experiment>``.

Runs any of the paper's experiments (or a quick training demo) from the
shell, printing the same paper-style tables the benchmarks produce.
Scale flags keep ad-hoc runs fast; the full-scale parameters live in
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench import format_table
from repro.faults.workload import WORKLOADS


def _cmd_fig2(args: argparse.Namespace) -> None:
    from repro.bench import run_fig2_table

    rows = run_fig2_table(args.server)
    print(f"Fig. 2 — FIO throughput (MiB/s) on {args.server}")
    print(
        format_table(
            ["workload", "ssd-ext4", "pm-dax", "ramdisk"],
            [
                [w, f"{v['ssd-ext4']:.1f}", f"{v['pm-dax']:.1f}",
                 f"{v['ramdisk']:.1f}"]
                for w, v in rows
            ],
        )
    )


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.bench import run_fig6
    from repro.bench.fig6 import series

    tx_sizes = (1, 4, 16, 64, 256, 1024)
    points = run_fig6(
        server=args.server,
        tx_sizes=tx_sizes,
        array_bytes=4 << 20,
        target_swaps=1024,
    )
    for pwb in ("clflush", "clflushopt"):
        s = series(points, pwb)
        print(f"Fig. 6 — SPS (Mswaps/s), {pwb}")
        print(
            format_table(
                ["tx size"] + list(s),
                [
                    [size] + [f"{s[rt][i] / 1e6:.2f}" for rt in s]
                    for i, size in enumerate(tx_sizes)
                ],
            )
        )


def _cmd_fig7(args: argparse.Namespace) -> None:
    from repro.bench import compute_table1, run_fig7
    from repro.bench.table1 import render_table1

    counts = (1, 4, 8, 11) if args.full else (1, 3, 5)
    filters = 512 if args.full else 128
    records = run_fig7(
        args.server, layer_counts=counts, filters=filters, runs=1
    )
    print(f"Fig. 7 — mirroring vs. SSD checkpointing on {args.server}")
    print(
        format_table(
            ["model MB", "pm save ms", "ssd save ms", "save x", "restore x"],
            [
                [
                    f"{r.model_mb:.1f}",
                    f"{r.pm_save.total * 1e3:.1f}",
                    f"{r.ssd_save.total * 1e3:.1f}",
                    f"{r.save_speedup:.2f}",
                    f"{r.restore_speedup:.2f}",
                ]
                for r in records
            ],
        )
    )
    if args.full:
        print()
        print(render_table1(compute_table1(records)))


def _cmd_fig8(args: argparse.Namespace) -> None:
    from repro.bench import run_fig8

    points = run_fig8(
        args.server, batch_sizes=(16, 64, 256), iterations=3, n_rows=512
    )
    print(f"Fig. 8 — batched-decryption overhead on {args.server}")
    print(
        format_table(
            ["batch", "encrypted ms", "plaintext ms", "overhead"],
            [
                [p.batch_size, f"{p.encrypted_seconds * 1e3:.2f}",
                 f"{p.plaintext_seconds * 1e3:.2f}", f"{p.overhead:.2f}x"]
                for p in points
            ],
        )
    )


def _cmd_fig9(args: argparse.Namespace) -> None:
    from repro.bench import run_fig9

    iterations = 500 if args.full else 80
    result = run_fig9(
        args.server,
        iterations=iterations,
        n_crashes=9 if args.full else 3,
        n_rows=1024 if args.full else 256,
        filters=8 if args.full else 4,
        batch=32 if args.full else 16,
    )
    print(f"Fig. 9 — crash resilience ({len(result.crash_points)} kills)")
    print(f"crash points: {result.crash_points}")
    print(f"resilient:     {result.resilient_total_iterations} iterations, "
          f"final loss {result.resilient.final_loss:.4f}")
    print(f"baseline:      final loss {result.baseline.final_loss:.4f}")
    print(f"non-resilient: {result.non_resilient_total_iterations} "
          f"combined iterations")


def _cmd_fig10(args: argparse.Namespace) -> None:
    from repro.bench import run_fig10

    result = run_fig10(
        args.server,
        target_iterations=500 if args.full else 60,
        iterations_per_interval=8 if args.full else 5,
        n_conv_layers=12 if args.full else 3,
        filters=4,
        n_rows=1024 if args.full else 256,
    )
    res, non = result.resilient, result.non_resilient
    print("Fig. 10 — spot-instance training")
    print(f"(a) resilient: {res.total_iterations} iterations, "
          f"{res.interruptions} interruptions, "
          f"final loss {res.log.final_loss:.4f}")
    print("(b) state: " + "".join(str(s) for s in res.state_curve))
    print(f"(c) non-resilient: {non.total_iterations} combined iterations")


def _cmd_inference(args: argparse.Namespace) -> None:
    from repro.bench import run_inference

    result = run_inference(
        args.server,
        n_conv_layers=12 if args.full else 5,
        iterations=400 if args.full else 150,
        n_train=6000 if args.full else 2000,
        n_test=1000 if args.full else 400,
    )
    print(f"Secure inference: {result.accuracy:.2%} accuracy on "
          f"{result.test_samples} test digits (paper: 98.52%)")


def _cmd_tcb(args: argparse.Namespace) -> None:
    from repro.analysis import tcb_report
    from repro.analysis.tcb import render_report, render_report_json

    report = tcb_report()
    if getattr(args, "format", "text") == "json":
        print(render_report_json(report))
    else:
        print(render_report(report))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import render_json, render_text, run_paths
    from repro.analysis.lint.reporters import render_sarif

    result = run_paths([Path(p) for p in args.paths])
    if args.format == "json":
        flow = {
            "seconds": round(result.flow_seconds, 4),
            "stats": result.flow_stats,
        }
        print(render_json(result.findings, result.files_checked, flow))
    elif args.format == "sarif":
        print(render_sarif(result.findings, result.files_checked))
    else:
        print(
            render_text(
                result.findings,
                result.files_checked,
                flow_seconds=result.flow_seconds,
            )
        )
    return result.exit_code(strict=args.strict)


def _cmd_crashtest(args: argparse.Namespace) -> int:
    from repro.faults.explorer import ExploreConfig, explore
    from repro.faults.registry import SITES

    if args.list_sites:
        for name in sorted(SITES):
            site = SITES[name]
            print(f"{name:<30} [{'/'.join(site.kinds)}] {site.description}")
        return 0

    config = ExploreConfig(
        exhaustive=args.exhaustive or args.samples is None,
        samples=args.samples if args.samples is not None else 32,
        seed=args.seed,
        workloads=tuple(args.workload or WORKLOADS),
        flight_dir=args.flight_dir,
    )
    if args.mutate:
        from repro.faults.mutations import apply_mutant

        try:
            mutant = apply_mutant(args.mutate)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        with mutant:
            report = explore(config)
    else:
        report = explore(config)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench.serving_load import (
        BATCH16_SPEEDUP_TARGET,
        render_text,
        run_serving_load,
    )

    report = run_serving_load(
        server=args.server,
        replicas=args.replicas,
        batch_max=args.batch_max,
        rate=args.rate,
        n_requests=args.requests,
        seed=args.seed,
        max_queue_depth=args.queue_depth,
    )
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"serve-bench on {args.server}: {args.requests} sealed "
            f"requests at {args.rate:,.0f} req/s (seed {args.seed})"
        )
        print("\n".join(render_text(report)))
    if args.batch_max >= 16 and report.batch_speedup < BATCH16_SPEEDUP_TARGET:
        print(
            f"FAIL: batch speedup {report.batch_speedup:.2f}x below the "
            f"{BATCH16_SPEEDUP_TARGET:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fed(args: argparse.Namespace) -> int:
    import json

    from repro.bench.federated import render_text, run_federated

    report = run_federated(
        n_clients=args.clients,
        rounds=args.rounds,
        local_steps=args.local_steps,
        seed=args.seed,
        server=args.server,
    )
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(render_text(report)))
    if not report.ok:
        print(
            f"FAIL: ledger committed {report.committed_round} rounds, "
            f"expected {report.rounds_requested}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        build_report,
        load_trace,
        render_report_json,
        render_report_text,
    )

    try:
        doc = load_trace(args.trace_file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    report = build_report(doc)
    rendered = (
        render_report_json(report)
        if args.format == "json"
        else render_report_text(report)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"report written to {args.out}")
    else:
        print(rendered, end="")
    return 0


def _cmd_train(args: argparse.Namespace) -> None:
    from repro.core.system import PliniusSystem
    from repro.data import synthetic_mnist, to_data_matrix

    images, labels, _, _ = synthetic_mnist(args.rows, 1, seed=args.seed)
    system = PliniusSystem.create(server=args.server, seed=args.seed)
    system.load_data(to_data_matrix(images, labels))
    model = system.build_model(
        n_conv_layers=args.layers, filters=args.filters, batch=args.batch
    )
    result = system.train(model, iterations=args.iterations)
    print(f"trained {result.final_iteration} iterations on {args.server}: "
          f"loss {result.log.losses[0]:.3f} -> {result.final_loss:.3f} "
          f"in {result.sim_seconds:.3f} simulated seconds")
    print(f"PM mirror at iteration {system.mirror.stored_iteration()}; "
          f"kill the process at any point and re-run to resume")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Plinius (DSN 2021) reproduction experiment runner",
    )
    parser.add_argument(
        "--server",
        default="emlSGX-PM",
        choices=["sgx-emlPM", "emlSGX-PM"],
        help="which of the paper's two servers to simulate",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale parameters (slower); default is a quick run",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "fig2": (_cmd_fig2, "FIO device characterization"),
        "fig6": (_cmd_fig6, "SPS PM-library comparison"),
        "fig7": (_cmd_fig7, "mirroring vs. SSD checkpointing"),
        "fig8": (_cmd_fig8, "batched-decryption overhead"),
        "fig9": (_cmd_fig9, "crash resilience"),
        "fig10": (_cmd_fig10, "spot-instance training"),
        "inference": (_cmd_inference, "secure inference accuracy"),
        "tcb": (_cmd_tcb, "TCB partitioning report"),
    }
    for name, (fn, help_text) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_trace_flag(cmd)
        if name == "tcb":
            cmd.add_argument(
                "--format",
                choices=["text", "json"],
                default="text",
                help="report format (json for CI consumers)",
            )
        cmd.set_defaults(func=fn)

    lint = sub.add_parser(
        "lint", help="run the repo-specific invariant linter"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="finding output format (sarif for GitHub code scanning)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (CI mode)",
    )
    lint.set_defaults(func=_cmd_lint)

    crashtest = sub.add_parser(
        "crashtest",
        help="deterministic fault injection + crash-schedule exploration",
    )
    crashtest.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="seeded sample of N schedules (default: exhaustive)",
    )
    crashtest.add_argument(
        "--exhaustive",
        action="store_true",
        help="replay every strided schedule (the default mode)",
    )
    crashtest.add_argument(
        "--seed", type=int, default=0, help="sampling seed"
    )
    crashtest.add_argument(
        "--workload",
        action="append",
        choices=list(WORKLOADS),
        default=None,
        help="restrict to one workload (repeatable; default: all four)",
    )
    crashtest.add_argument(
        "--mutate",
        metavar="NAME",
        default=None,
        help="run under a deliberately broken variant (self-validation); "
        "the run must then FAIL",
    )
    crashtest.add_argument(
        "--list-sites",
        action="store_true",
        help="print the fault-point registry and exit",
    )
    crashtest.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json for CI consumers)",
    )
    crashtest.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="write each violation's flight-recorder snapshot to "
        "DIR/flight-<workload>-<n>.json (crash artifacts for CI upload)",
    )
    crashtest.set_defaults(func=_cmd_crashtest)

    serve = sub.add_parser(
        "serve-bench",
        help="inference gateway load benchmark (batching + replicas)",
    )
    serve.add_argument(
        "--replicas", type=int, default=4,
        help="enclave replicas in the scaled configuration",
    )
    serve.add_argument(
        "--batch-max", type=int, default=16,
        help="largest coalesced batch the gateway dispatches",
    )
    serve.add_argument(
        "--rate", type=float, default=50_000.0,
        help="open-loop Poisson arrival rate (sim requests/second)",
    )
    serve.add_argument(
        "--requests", type=int, default=256,
        help="number of sealed requests in the arrival stream",
    )
    serve.add_argument(
        "--seed", type=int, default=11, help="arrival/payload seed"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=0,
        help="admission-control queue cap (0: never reject)",
    )
    serve.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report here (for the regression gate)",
    )
    serve.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json for CI consumers)",
    )
    _add_trace_flag(serve)
    serve.set_defaults(func=_cmd_serve_bench)

    fed = sub.add_parser(
        "fed",
        help="federated secure training (attested clients, Merkle-"
        "committed rounds)",
    )
    fed.add_argument(
        "--clients", type=int, default=4,
        help="number of attested client hosts",
    )
    fed.add_argument(
        "--rounds", type=int, default=3,
        help="federation rounds to commit",
    )
    fed.add_argument(
        "--local-steps", type=int, default=2,
        help="local SGD steps per client per round",
    )
    fed.add_argument(
        "--seed", type=int, default=4242,
        help="federation seed (shards, keys, model init)",
    )
    fed.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report here (for the CI smoke gate)",
    )
    fed.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json for CI consumers)",
    )
    _add_trace_flag(fed)
    fed.set_defaults(func=_cmd_fed)

    report = sub.add_parser(
        "report",
        help="summarize a --trace artifact (spans, causal trees, "
        "histograms, SLO events, flight tail)",
    )
    report.add_argument(
        "trace_file",
        metavar="TRACE",
        help="Chrome trace-event JSON written by any command's --trace flag",
    )
    report.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="text table or canonical JSON (byte-identical for "
        "same-seed runs)",
    )
    report.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the rendering here instead of stdout",
    )
    report.set_defaults(func=_cmd_report)

    train = sub.add_parser("train", help="train a CNN with mirroring")
    train.add_argument("--iterations", type=int, default=100)
    train.add_argument("--layers", type=int, default=5)
    train.add_argument("--filters", type=int, default=8)
    train.add_argument("--batch", type=int, default=32)
    train.add_argument("--rows", type=int, default=1024)
    train.add_argument("--seed", type=int, default=7)
    _add_trace_flag(train)
    train.set_defaults(func=_cmd_train)
    return parser


def _add_trace_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a dual-clock trace of the run and write it as "
        "Chrome trace-event JSON (open in Perfetto / chrome://tracing)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.func(args) or 0

    from repro.obs import (
        TraceRecorder,
        install_default_recorder,
        write_chrome_trace,
    )

    # Installing the process default makes every SimClock (and thus
    # every system) the command creates attach to this recorder.
    recorder = TraceRecorder()
    previous = install_default_recorder(recorder)
    rc = 0
    try:
        rc = args.func(args) or 0
    finally:
        install_default_recorder(previous)
        write_chrome_trace(recorder, trace_path)
        print(
            f"trace: {len(recorder.spans)} spans, "
            f"{len(recorder.events)} events, "
            f"{len(recorder.counters)} metrics -> {trace_path}"
        )
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

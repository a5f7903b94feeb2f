#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload mirror_large --seed 11 \\
        --seconds 15 --trace 0

prints every metric as ``workload metric value unit``, checks the
program's outputs, and ends with one JSON object.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` runs the fixed laps under the
benchmark's own span tracer and gives the per-layer metrics.

Around that, three conveniences::

    run.py --seed 11 --out A.json      # all workloads, interleaved passes
    run.py --agree A.json B.json       # compare two result files
    run.py --selftest                  # tiny sizes, names + determinism

See README.md beside this file for what each number means.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

#: BLAS threads, pinned before numpy loads so every run sees the same
#: kernel parallelism; recorded in each result's host block.  One, not
#: min(nproc, 2): on the 2-vCPU box a second thread buys the conv GEMMs
#: under 10 % and, whenever the hypervisor takes one vCPU away, leaves
#: the other spinning at a barrier — run-to-run noise of 2-5x.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics, layer_self_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: Set-up is repeated at least this often, and until a second has been
#: spent on it (cheap set-ups get more repetitions), up to the cap.
SETUP_REPS_MIN, SETUP_REPS_MAX, SETUP_BUDGET_S = 3, 9, 1.0
SCHEMA = "plinius-e2e-bench/1"
#: Same-seed runs must agree on simulated metrics to this relative gap.
SIM_EXACT = 1e-9

_perf = time.perf_counter


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


#: What a fresh interpreter runs to time the program's import once more.
_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import numpy
start = time.perf_counter()
import workloads
print(time.perf_counter() - start)
"""


def _build_program(import_probes: int = 0) -> float:
    """Byte-compile the program (the only build step there is) and
    import it; returns the seconds the program's own modules took to
    import, which are part of set-up (numpy's are not: it is loaded
    first, off the clock).  An import happens once per interpreter, so
    ``import_probes`` more interpreters repeat it and the median of all
    the readings is returned."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"benchmark: program sources not found under {SRC}")
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    start = _perf()
    import workloads  # noqa: F401  (pulls in every repro layer)
    readings = [_perf() - start]
    for _ in range(import_probes):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True,
        )
        readings.append(float(probe.stdout))
    return _median(readings)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


# ----------------------------------------------------------------------
# One workload, one process: the contract run
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, import_s: float = 0.0) -> dict:
    """Run one workload; returns the result record (see ``emit``)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tiny=tiny)
    if trace:
        metrics, diag, laps = _traced_run(workload, seconds)
    else:
        metrics, diag, laps = _untraced_run(workload, seconds, import_s)
    attempted = sum(lap.ops for lap in laps)
    failed = sum(lap.failed for lap in laps) + workload.verify()
    diag["laps"] = (len(laps), "count")
    diag["op_samples"] = (sum(len(lap.op_ms) for lap in laps), "count")
    diag["recover_samples"] = (sum(len(lap.recover_ms) for lap in laps), "count")
    diag["process_s"] = (_perf() - _PROCESS_START, "s")
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": metrics,
        "diag": diag,
        "digests": dict(workload.digests),
        "notes": list(workload.notes),
    }


def _lap_while(workload, laps: list, more) -> None:
    """Append laps while ``more()``.  The cyclic GC runs between laps,
    so no lap pays for another's garbage."""
    while more():
        gc.collect()
        laps.append(workload.lap(len(laps)))


def _pooled(laps, field: str) -> list:
    return [ms for lap in laps for ms in getattr(lap, field)]


def _untraced_run(workload, seconds: float, import_s: float):
    """The end-to-end metrics: repeated set-up, then laps for ``seconds``."""
    setups = []
    while len(setups) < SETUP_REPS_MAX and (
        len(setups) < SETUP_REPS_MIN or sum(setups) < SETUP_BUDGET_S
    ):
        if setups:
            workload.teardown()
            gc.collect()
        start = _perf()
        workload.setup()
        setups.append(_perf() - start)

    laps = []
    started = _perf()
    _lap_while(workload, laps, lambda: len(laps) < workload.min_laps)
    # Simulated metrics and peak memory: after the fixed laps, so they
    # do not depend on how many more laps the box is fast enough to fit.
    workload.freeze()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _lap_while(workload, laps, lambda: _perf() - started < seconds)

    op_ms = _pooled(laps, "op_ms")
    metrics = {
        "setup_s": (import_s + _median(setups), "s"),
        "wall_ops_per_s": (1e3 / _median(op_ms), "ops/s"),
        "recover_wall_ms_p50": (_median(_pooled(laps, "recover_ms")), "ms"),
        "peak_rss_mb": (peak_rss, "MiB"),
        **workload.sim,
    }
    diag = {
        "wall_op_ms_p90": (_percentile(op_ms, 0.9), "ms"),
        "setup_reps": (len(setups), "count"),
        "import_s": (import_s, "s"),
    }
    return metrics, diag, laps


def _traced_run(workload, seconds: float):
    """The per-layer metrics: the fixed laps under the span tracer, then
    untraced laps of the same run to price the tracing itself."""
    tracer = Tracer(workload.op_roots)
    tracer.install()
    try:
        tracer.begin_phase("setup", recording=True)
        workload.setup()
        before = tracer.stat_totals()

        tracer.begin_phase("timed")  # spans record inside timed() only
        workload.tracer = tracer
        laps = []
        started = _perf()
        timed_before = workload.timed_total
        _lap_while(workload, laps, lambda: len(laps) < workload.min_laps)
        traced_wall = workload.timed_total - timed_before
        workload.freeze()
        counts = tracer.stat_totals()

        tracer.begin_phase("baseline")
        workload.baseline()
        counts.update({
            key: value for key, value in tracer.stat_totals().items()
            if key.startswith("BlockDevice.")
        })
    finally:
        workload.tracer = None
        tracer.uninstall()
    traced = list(laps)
    _lap_while(workload, laps, lambda: (
        _perf() - started < seconds or len(laps) < len(traced) + 2
    ))

    layer = layer_metrics(
        tracer, {key: value - before[key] for key, value in counts.items()}
    )
    layer.update(workload.extras)
    op_ms = _pooled(laps[len(traced):], "op_ms")
    layer["e2e.save_wall_ms_p50"] = (
        _median(tracer.durations("timed", "core.mirror:out")) * 1e3, "ms")
    layer["e2e.restore_wall_ms_p50"] = (
        _median(tracer.durations("timed", "core.mirror:in")) * 1e3, "ms")
    layer["e2e.wall_op_ms_p90"] = (_percentile(op_ms, 0.9), "ms")
    layer["hw.pmem.init_s"] = (_pm_init_seconds(workload.pm_size), "s")
    layer["obs.traced_wall_s"] = (traced_wall, "s")
    layer["obs.trace_overhead_pct"] = (
        (_median(_pooled(traced, "op_ms")) / _median(op_ms) - 1.0) * 100.0, "%")

    declared = load_spec()["per_layer"]
    undeclared = sorted(set(layer) - {m["name"] for m in declared})
    if undeclared:
        raise SystemExit(f"benchmark: undeclared per-layer metrics {undeclared}")
    metrics = {m["name"]: layer.get(m["name"], (0.0, m["unit"])) for m in declared}

    shares = layer_self_seconds(tracer.aggregate("timed"))
    diag = {
        f"share.{name}": (100.0 * self_s / traced_wall, "%")
        for name, self_s in sorted(shares.items(), key=lambda kv: -kv[1])
    }
    diag["share.untraced"] = (
        100.0 * (1.0 - sum(shares.values()) / traced_wall), "%")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"trace_{workload.name}.jsonl")
    return metrics, diag, laps


def _pm_init_seconds(size: int) -> float:
    """Wall seconds to construct a PM device of the workload's size."""
    from repro.hw.pmem import PersistentMemoryDevice
    from repro.simtime.clock import SimClock
    from repro.simtime.profiles import get_profile

    start = _perf()
    PersistentMemoryDevice(size, SimClock(), get_profile("emlSGX-PM").pm)
    return _perf() - start


def emit(record: dict) -> None:
    """Print ``workload metric value unit`` lines, then the JSON object."""
    name = record["workload"]
    for note in record["notes"]:
        print(f"# {name}: {note}")
    for key, digest in sorted(record["digests"].items()):
        print(f"{name} digest.{key} {digest} sha256")
    for key, (value, unit) in record["diag"].items():
        print(f"{name} diag.{key} {value!r} {unit}")
    for key, (value, unit) in record["metrics"].items():
        print(f"{name} {key} {value!r} {unit}")
    print(f"{name} ops_attempted {record['attempted']} count")
    print(f"{name} ops_failed {record['failed']} count")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in record["metrics"].items()
        },
    }))


# ----------------------------------------------------------------------
# All workloads, interleaved passes, one result file
# ----------------------------------------------------------------------

def host_block(seed: int, passes: int, seconds: int) -> dict:
    import numpy

    from repro.crypto.backend import default_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "crypto_backend": default_backend().name,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "passes": passes,
        "seconds": seconds,
        "git_commit": commit,
    }


def _child(name: str, seed: int, seconds: int, trace: int, tiny: bool) -> dict:
    """One (workload, pass) in a fresh interpreter; parses its output."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command + ["--tiny"] * tiny, capture_output=True, text=True, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"benchmark: {name} printed nothing (exit {done.returncode}):\n"
            f"{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    result["digests"] = {}
    result["diag"] = {}
    prefix = f"{name} "
    for line in lines[:-1]:
        if line.startswith("#"):
            print(line)
        elif line.startswith(prefix + "digest."):
            _, key, value, _unit = line.split()
            result["digests"][key[len("digest."):]] = value
        elif line.startswith(prefix + "diag."):
            _, key, value, unit = line.split()
            result["diag"][key[len("diag."):]] = {"value": float(value), "unit": unit}
    return result


def run_all(seed: int, passes: int, seconds: int, out: Path,
            tiny: bool = False) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results = {
        name: {"passes": [], "metrics": {}, "digests": {}, "per_layer": {},
               "shares": {}, "attempted": 0, "failed": 0, "correct": True}
        for name in names
    }
    problems = []

    def fold(name: str, child: dict) -> None:
        entry = results[name]
        entry["attempted"] += child["attempted"]
        entry["failed"] += child["failed"]
        if not child["correct"] or child["exit"] != 0:
            entry["correct"] = False
            problems.append(f"{name}: output check failed (exit {child['exit']})")
        for key, digest in child["digests"].items():
            if entry["digests"].setdefault(key, digest) != digest:
                entry["correct"] = False
                problems.append(f"{name}: digest {key} differs between passes")

    # A-B-C-D-A-B-C-D: drift of the box lands on every workload alike.
    for pass_no in range(passes):
        for name in names:
            child = _child(name, seed, seconds, 0, tiny)
            fold(name, child)
            results[name]["passes"].append(child["metrics"])
            print(f"# pass {pass_no + 1}/{passes} {name} done", flush=True)
    for name in names:
        child = _child(name, seed, seconds, 1, tiny)
        fold(name, child)
        results[name]["per_layer"] = child["metrics"]
        results[name]["shares"] = {
            key: value for key, value in child["diag"].items()
            if key.startswith("share.")
        }

    for name in names:
        entry = results[name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [p[key]["value"] for p in entry["passes"]]
            entry["metrics"][key] = {
                "unit": metric["unit"], "values": values,
                "median": _median(values),
            }
            if key.startswith("sim_") and max(values) - min(values) > (
                SIM_EXACT * abs(values[0])
            ):
                entry["correct"] = False
                problems.append(f"{name}: {key} differs between same-seed passes")
            print(f"{name} {key} {entry['metrics'][key]['median']!r} {metric['unit']}")
        for key, value in entry["per_layer"].items():
            print(f"{name} {key} {value['value']!r} {value['unit']}")
        for key, value in entry["shares"].items():
            print(f"{name} diag.{key} {value['value']!r} {value['unit']}")
        print(f"{name} ops_attempted {entry['attempted']} count")
        print(f"{name} ops_failed {entry['failed']} count")
        del entry["passes"]

    document = {
        "schema": SCHEMA,
        "host": host_block(seed, passes, seconds),
        "workloads": results,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------

def _spread(values) -> float:
    median = _median(values)
    return (max(values) - min(values)) / abs(median) if median else 0.0


def agree(path_a: Path, path_b: Path) -> int:
    """One row per (workload, end-to-end metric): A, B, relative
    change in the worse direction, bound, verdict.  Exit 1 on ``worse``,
    2 when the files are not comparable."""
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    for key in ("crypto_backend", "blas_threads"):
        if a["host"][key] != b["host"][key]:
            print(
                f"refusing to compare: {key} differs "
                f"({a['host'][key]!r} vs {b['host'][key]!r})"
            )
            return 2
    same_seed = a["host"]["seed"] == b["host"]["seed"]
    spec = load_spec()
    worse = 0
    print(f"{'workload':14} {'metric':22} {'A':>14} {'B':>14} "
          f"{'worse by':>9} {'bound':>8} {'spread':>8} verdict")
    for name in a["workloads"]:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            ma = a["workloads"][name]["metrics"][key]
            mb = b["workloads"][name]["metrics"][key]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (mb["median"] - ma["median"]) / abs(ma["median"])
            bound = metric["bound"]
            if key.startswith("sim_") and same_seed:
                bound = SIM_EXACT
            spread = max(_spread(ma["values"]), _spread(mb["values"]))
            if sign > 0:
                b_all_better = max(mb["values"]) < min(ma["values"])
            else:
                b_all_better = min(mb["values"]) > max(ma["values"])
            if spread > bound and not b_all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{name:14} {key:22} {ma['median']:14.6g} {mb['median']:14.6g} "
                  f"{change:+9.2%} {bound:8.2g} {spread:8.2%} {verdict}")
    if same_seed:
        for name, entry in a["workloads"].items():
            other = b["workloads"][name]
            for key, digest in entry["digests"].items():
                if other["digests"].get(key) != digest:
                    print(f"{name:14} digest.{key} differs: worse")
                    worse += 1
            loss_a = entry["per_layer"].get("e2e.final_loss", {}).get("value")
            loss_b = other["per_layer"].get("e2e.final_loss", {}).get("value")
            if loss_a != loss_b:
                print(f"{name:14} e2e.final_loss {loss_a!r} vs {loss_b!r}: worse")
                worse += 1
    return 1 if worse else 0


# ----------------------------------------------------------------------
# Self-test: names, limits, determinism — at tiny sizes
# ----------------------------------------------------------------------

def selftest() -> int:
    import re

    spec = load_spec()
    import_s = _build_program()
    names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    check(2 <= len(names) <= 8, "workload count outside 2..8")
    check(1 <= len(e2e) <= 16, "end-to-end metric count outside 1..16")
    check(1 <= len(per_layer) <= 128, "per-layer metric count outside 1..128")
    check("setup_s" in e2e, "setup_s is not an end-to-end metric")
    for name in [*names, *e2e, *per_layer]:
        check(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) is not None,
              f"bad name {name!r}")
    check(len({*names, *e2e, *per_layer}) == len(names) + len(e2e) + len(per_layer),
          "a name is used twice")

    for name in names:
        first = run_workload(name, 11, 0.2, False, tiny=True, import_s=import_s)
        again = run_workload(name, 11, 0.2, False, tiny=True, import_s=import_s)
        other = run_workload(name, 12, 0.2, False, tiny=True, import_s=import_s)
        traced = run_workload(name, 11, 0.2, True, tiny=True, import_s=import_s)
        for record, declared in ((first, e2e), (traced, per_layer)):
            check(record["correct"], f"{name}: output check failed")
            check(set(record["metrics"]) == set(declared),
                  f"{name}: emitted names differ from BENCHMARK.json")
            for key, (_value, unit) in record["metrics"].items():
                check(declared.get(key) == unit,
                      f"{name}: {key} unit {unit!r} is not the declared one")
        for key in e2e:
            check(first["metrics"][key][0] != 0, f"{name}: {key} is 0")
        sim = [key for key in e2e if key.startswith("sim_")]
        for key in sim:
            check(first["metrics"][key] == again["metrics"][key],
                  f"{name}: {key} differs between same-seed runs")
        check(first["digests"] == again["digests"] == traced["digests"],
              f"{name}: digests differ between same-seed runs")
        check(first["digests"] != other["digests"],
              f"{name}: digests do not change with the seed")
        loss = traced["metrics"]["e2e.final_loss"][0]
        print(f"selftest {name}: ok={first['correct']} "
              f"sim={[first['metrics'][k][0] for k in sim]} final_loss={loss!r}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"selftest: {len(problems)} problem(s) in "
          f"{_perf() - _PROCESS_START:.1f} s")
    return 1 if problems else 0


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="run every workload and write this result file")
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--agree", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the benchmark's own tests only")
    args = parser.parse_args(argv)

    if args.agree:
        return agree(*args.agree)
    if args.selftest:
        return selftest()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload:
        import_s = _build_program(import_probes=0 if args.trace else 2)
        record = run_workload(
            args.workload, args.seed, seconds, bool(args.trace),
            tiny=args.tiny, import_s=import_s,
        )
        emit(record)
        return 0 if record["correct"] else 1
    if args.out:
        _build_program()
        return run_all(args.seed, args.passes, seconds, args.out, args.tiny)
    parser.error("give --workload, --out, --agree or --selftest")
    return 2


if __name__ == "__main__":
    sys.exit(main())

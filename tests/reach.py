"""The reach map: which ``src/repro`` functions run.

:func:`reached` runs :func:`jobs` in one process under
``sys.setprofile`` and ``threading.setprofile`` and records every
``src/repro`` code object that was called.  The jobs are what this
repository runs: every command line CI and the docs use (each figure,
``lint`` in all three formats, ``tcb``, ``crashtest --exhaustive
--flight-dir``, ``serve-bench`` and ``fed`` with ``--trace`` and then
``report`` on their traces, a traced ``train``), the six ``examples/``,
the four ``benchmarks/e2e`` workloads traced and untraced,
``bench_wallclock.py --smoke`` and the figure benchmarks.

:func:`functions` lists every function ``src/repro`` defines, keyed
``repro.module.Qual.name`` (nested functions as
``outer.<locals>.inner``, the key ``co_qualname`` gives); dunders are
left out.  ``tests/test_reach.py`` holds each one to "ran, or waived in
``tests/test_lint.py``'s ``CALLER_WAIVERS``": the static caller census
and this dynamic one share one table and one closed list of reasons.

    PYTHONPATH=src python -m tests.reach          # unreached, with line counts
    PYTHONPATH=src python -m tests.reach --json   # the reached keys

Code run in a child process is not seen: every job runs in this one.
The keys come from ``co_qualname``, so this needs Python 3.11.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"


# ----------------------------------------------------------------------
# What src/repro defines
# ----------------------------------------------------------------------

def _module(path: Path, src: Path = SRC) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def functions(src: Path = SRC) -> Dict[str, Tuple[Path, int]]:
    """``{key: (path, lines)}`` for every non-dunder function under
    ``src/repro``."""
    out: Dict[str, Tuple[Path, int]] = {}

    def walk(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = prefix + child.name
                if not _is_dunder(child.name):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    # A property's getter and setter share one key.
                    lines = out.get(key, (path, 0))[1]
                    out[key] = (path, lines + child.end_lineno - first + 1)
                walk(child, key + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for path in sorted((src / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), _module(path, src) + ".", path)
    return out


# ----------------------------------------------------------------------
# What runs
# ----------------------------------------------------------------------

def _cli(*argv: str) -> Callable[[], None]:
    def job() -> None:
        from repro.cli import main

        rc = main(list(argv))
        assert rc == 0, (argv, rc)

    return job


def _script(path: str, *argv: str) -> Callable[[], None]:
    def job() -> None:
        saved = sys.argv, list(sys.path)
        sys.argv = [str(REPO / path), *argv]
        sys.path.insert(0, str((REPO / path).parent))
        try:
            runpy.run_path(str(REPO / path), run_name="__main__")
        except SystemExit as stop:
            assert not stop.code, (path, stop.code)
        finally:
            sys.argv, sys.path[:] = saved[0], saved[1]

    return job


def _e2e(workload: str, trace: bool) -> Callable[[], None]:
    def job() -> None:
        here = str(REPO / "benchmarks" / "e2e")
        sys.path.insert(0, here)
        try:
            run = runpy.run_path(str(Path(here) / "run.py"), run_name="reach")
            record = run["run_workload"](workload, 11, 0.0, trace)
        finally:
            sys.path.remove(here)
        assert record["correct"], (workload, trace)

    return job


def _figure_benchmarks() -> None:
    """The paper-figure benchmarks, once each.  A failing assertion is
    the figure's business, not reach's: only a collection or usage
    error fails the job."""
    import pytest

    scripts = sorted(
        p for p in glob.glob(str(REPO / "benchmarks" / "bench_*.py"))
        if not p.endswith("bench_wallclock.py")
    )
    rc = pytest.main([
        *scripts, "-q", "-o", "addopts=", "-p", "no:cacheprovider",
        "--benchmark-disable", "--rootdir", str(REPO / "benchmarks"),
    ])
    assert rc in (0, 1), rc


def jobs(scratch: Path) -> List[Tuple[str, Callable[[], None]]]:
    """Every job, in order; traces and reports land in ``scratch``."""
    serve, fed, train = (str(scratch / n) for n in ("serve.json", "fed.json", "train.json"))
    return [
        ("fig2", _cli("fig2")),
        ("fig6", _cli("fig6")),
        ("fig7", _cli("fig7", "--trace", str(scratch / "fig7.json"))),
        ("fig7 emlSGX-PM", _cli("--server", "emlSGX-PM", "fig7")),
        ("fig8", _cli("fig8")),
        ("fig9", _cli("fig9")),
        ("fig10", _cli("fig10")),
        ("inference", _cli("inference")),
        ("tcb", _cli("tcb")),
        ("tcb json", _cli("tcb", "--format", "json")),
        ("lint", _cli("lint", "src/", "--strict")),
        ("lint json", _cli("lint", "src/", "--strict", "--format", "json")),
        ("lint sarif", _cli("lint", "src/", "--strict", "--format", "sarif")),
        ("crashtest list", _cli("crashtest", "--list-sites")),
        ("crashtest sample", _cli("crashtest", "--samples", "12", "--seed", "1")),
        ("crashtest exhaustive", _cli(
            "crashtest", "--exhaustive", "--format", "json",
            "--flight-dir", str(scratch / "flight"),
        )),
        ("serve-bench", _cli(
            "serve-bench", "--replicas", "4", "--batch-max", "16",
            "--requests", "128", "--format", "json",
            "--out", str(scratch / "serve_load.json"), "--trace", serve,
        )),
        ("serve-bench text", _cli("serve-bench", "--requests", "64")),
        ("report serve", _cli("report", serve)),
        ("report serve json", _cli(
            "report", serve, "--format", "json", "--out", str(scratch / "r.json"),
        )),
        ("fed", _cli(
            "fed", "--clients", "4", "--rounds", "3", "--trace", fed,
            "--out", str(scratch / "fed_report.json"),
        )),
        ("report fed", _cli("report", fed, "--format", "json")),
        ("train", _cli("train", "--iterations", "3", "--rows", "128", "--trace", train)),
        ("report train", _cli("report", train)),
        *(
            (f"examples/{name}", _script(f"examples/{name}"))
            for name in sorted(os.listdir(REPO / "examples"))
            if name.endswith(".py")
        ),
        *(
            (f"e2e {name}{' traced' if trace else ''}", _e2e(name, trace))
            for name in ("train_mnist", "mirror_large", "serve_poisson", "fed_rounds")
            for trace in (False, True)
        ),
        ("bench_wallclock --smoke", _script(
            "benchmarks/bench_wallclock.py", "--smoke",
            "--out", str(scratch / "wallclock.json"),
        )),
        ("figure benchmarks", _figure_benchmarks),
    ]


def reached(progress=None) -> Set[str]:
    """Run every job under the profile hook; the keys that ran."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(REPO)
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            for name, job in jobs(Path(scratch)):
                if progress:
                    progress(name)
                with contextlib.redirect_stdout(io.StringIO()):
                    job()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    root = str(PACKAGE) + os.sep
    return {
        f"{_module(Path(code.co_filename))}.{code.co_qualname}"
        for code in codes
        if code.co_filename.startswith(root)
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv

    def log(name: str) -> None:
        print(f"reach: {name}", file=sys.stderr, flush=True)

    ran = reached(progress=log)
    if "--json" in args:
        print(json.dumps(sorted(ran), indent=0))
        return 0
    defined = functions()
    for key in sorted(set(defined) - ran):
        path, lines = defined[key]
        print(f"{lines:5d}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the repo-specific invariant linter (repro.analysis.lint).

Three layers of coverage:

* fixture files under ``tests/fixtures/lint/`` prove each rule fires on
  a violating example and stays silent on a compliant one (plus the
  suppression machinery);
* the dogfood test asserts ``repro lint src/ --strict`` exits 0 on the
  committed tree — every invariant violation is fixed or carries a
  rationale;
* regression tests pin the genuine DET001 fixes (unseeded
  ``np.random.default_rng()`` fallbacks now default to a fixed seed).
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.lint import (
    SUPPRESSION_RULE_ID,
    Severity,
    default_rules,
    lint_file,
    render_json,
    render_text,
    run_paths,
)
from repro.analysis.tcb import TRUSTED_MODULES, UNTRUSTED_MODULES
from repro.cli import main
from tests.reach import functions

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parent.parent / "src"


def rule_ids(path: Path):
    """Per-module rules and the flow pass (SEC001 lives there)."""
    return [f.rule_id for f in run_paths([path]).findings]


# ----------------------------------------------------------------------
# Per-rule fixtures: fire on bad, silent on good
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "rule, bad, good",
    [
        ("SEC001", "sec001_bad.py", "sec001_good.py"),
        ("SEC002", "sec002_bad.py", "sec002_good.py"),
        ("DET001", "det001_bad.py", "det001_good.py"),
        ("ALLOC001", "alloc001_bad.py", "alloc001_good.py"),
        ("LCK001", "lck001_bad.py", "lck001_good.py"),
    ],
)
def test_rule_fires_on_bad_and_not_on_good(rule, bad, good):
    assert rule in rule_ids(FIXTURES / bad)
    assert rule not in rule_ids(FIXTURES / good)


def test_sec001_tracks_aliases_and_decrypted_data():
    ids = rule_ids(FIXTURES / "sec001_bad.py")
    assert ids.count("SEC001") == 3


def test_det001_is_warning_severity():
    kept, _ = lint_file(FIXTURES / "det001_bad.py", default_rules())
    det = [f for f in kept if f.rule_id == "DET001"]
    assert det and all(f.severity is Severity.WARNING for f in det)
    # wall clocks, global RNG (x2), and the unseeded constructor all fire
    assert len(det) >= 4


def test_det001_allowlists_the_obs_wallclock_lane():
    assert rule_ids(FIXTURES / "det001_exempt.py") == []


def test_lck001_names_the_field_and_site():
    kept, _ = lint_file(FIXTURES / "lck001_bad.py", default_rules())
    lck = [f for f in kept if f.rule_id == "LCK001"]
    assert len(lck) == 2
    assert {"self.stats" in f.message or "self.samples" in f.message
            for f in lck} == {True}


# ----------------------------------------------------------------------
# Suppression machinery
# ----------------------------------------------------------------------

def test_noqa_with_rationale_suppresses():
    kept, dropped = lint_file(FIXTURES / "suppressed.py", default_rules())
    assert kept == []
    assert [f.rule_id for f in dropped] == ["DET001", "DET001"]


def test_file_wide_noqa_suppresses_everything():
    kept, dropped = lint_file(
        FIXTURES / "suppressed_file.py", default_rules()
    )
    assert kept == []
    assert all(f.rule_id == "DET001" for f in dropped) and dropped


def test_missing_rationale_reports_sup001():
    kept, _ = lint_file(FIXTURES / "missing_rationale.py", default_rules())
    assert [f.rule_id for f in kept] == [SUPPRESSION_RULE_ID]
    assert all(f.severity is Severity.ERROR for f in kept)


def test_sup001_cannot_be_suppressed(tmp_path):
    victim = tmp_path / "meta.py"
    victim.write_text(
        "# repro: noqa-file[SUP001] -- nice try\n"
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: noqa[DET001]\n"
    )
    kept, _ = lint_file(victim, default_rules())
    assert SUPPRESSION_RULE_ID in [f.rule_id for f in kept]


# ----------------------------------------------------------------------
# Dogfood: the committed tree is clean, breaking it fails
# ----------------------------------------------------------------------

def test_lint_src_is_clean_strict():
    result = run_paths([SRC])
    assert result.findings == [], render_text(
        result.findings, result.files_checked
    )
    assert result.exit_code(strict=True) == 0
    assert result.files_checked > 90


def test_breaking_an_invariant_fails_the_run(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "def sneak(tx, net):\n"
        "    tx.write(4096, net.save_weights())\n"
    )
    result = run_paths([tmp_path])
    assert result.exit_code() == 1
    assert [f.rule_id for f in result.findings] == ["SEC001"]


def test_warnings_fail_only_under_strict(tmp_path):
    wobbly = tmp_path / "wobbly.py"
    wobbly.write_text("import time\n\ndef f():\n    return time.time()\n")
    result = run_paths([tmp_path])
    assert result.exit_code(strict=False) == 0
    assert result.exit_code(strict=True) == 1


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

def test_cli_lint_bad_fixture_exits_nonzero(capsys):
    rc = main(["lint", str(FIXTURES / "sec002_bad.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "SEC002" in out and "error" in out


def test_cli_lint_json_format(capsys):
    rc = main(["lint", str(FIXTURES / "sec002_bad.py"), "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["errors"], payload["warnings"]) == (2, 1)
    # Two enclave-only imports, and SgxRandom() built without a seed.
    assert {f["rule"] for f in payload["findings"]} == {"SEC002", "DET001"}


def test_cli_lint_clean_fixture_exits_zero(capsys):
    rc = main(["lint", str(FIXTURES / "sec002_good.py")])
    assert rc == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_render_json_roundtrip():
    result = run_paths([FIXTURES / "det001_bad.py"])
    flow = {"seconds": result.flow_seconds, "stats": result.flow_stats}
    payload = json.loads(
        render_json(result.findings, result.files_checked, flow)
    )
    assert payload["files_checked"] == 1
    assert payload["warnings"] == len(payload["findings"])
    assert payload["flow"]["stats"]["modules"] == 1


# ----------------------------------------------------------------------
# One trust manifest (repro.analysis.tcb) that lint, flow and tcb read
# ----------------------------------------------------------------------

def test_every_module_is_classified_exactly_once():
    """A new module must be placed on one side of the boundary map."""
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.stem != "__init__"
    }
    exempt = {m for m in modules if m.startswith("repro.bench.")}
    exempt.add("repro.__main__")
    classified = list(TRUSTED_MODULES) + list(UNTRUSTED_MODULES)
    assert sorted(classified) == sorted(modules - exempt)


# ----------------------------------------------------------------------
# Caller census: every module is reachable from something that runs
# ----------------------------------------------------------------------

#: Modules nothing under the roots imports yet, each with the open item
#: that decides it.  They count as roots (so what only they import is
#: reached) and must be dropped from here once a real caller exists.
#: Below them, the waivers of both symbol censuses, with one of
#: WAIVER_REASONS each: a public name, defaulted keyword or config field
#: nothing outside tests/ uses (the static census,
#: test_every_symbol_has_a_caller), or a function the reach map's job set
#: never runs (the dynamic census, tests/test_reach.py).  A waiver
#: neither census needs is stale and fails one of them.
_PURE_AES_GCM = "(b) the pure AES-GCM reference the wheel is held to"
_SEND_PATH = (
    "(d) the asynchronous send path: PATCHES names send; only "
    "test_cluster_properties drives it (ROADMAP 10)"
)
CALLER_WAIVERS = {
    "repro.core.workflow":
        "(c) the Fig. 5 workflow examples/full_workflow.py runs; "
        "carries darknet.weights",
    "repro.distributed.pipeline":
        "(c) examples/distributed_training.py runs it; "
        "ROADMAP 4c owes it a benchmark workload",
    "repro.distributed.data_parallel":
        "(c) examples/distributed_training.py runs it; "
        "ROADMAP 4c owes it a benchmark workload",
    # (a) fault, tamper and impostor injection
    "repro.hw.pmem.PersistentMemoryDevice.load_image":
        "(a) tests replay an older or tampered PM image",
    "repro.hw.undo.Holds.clear": "(a) load_image drops every hold",
    "repro.sgx.enclave.Enclave(code_identity=)":
        "(a) tests build impostor enclaves with another measurement",
    "repro.sgx.enclave.Enclave(heap_size=)":
        "(a) test_sgx shrinks the heap to 1 MiB to force EnclaveOOM",
    "repro.serving.gateway.InferenceGateway.schedule_crash":
        "(a) gateway tests crash a replica mid-run",
    "repro.serving.gateway.InferenceGateway._on_crash":
        "(a) the crash a gateway test schedules",
    "repro.serving.gateway.InferenceGateway.schedule_repair":
        "(a) gateway tests repair the replica they crashed",
    "repro.cluster.network.ClusterNetwork.partition(duplex=)":
        "(a) cluster property tests cut one direction of a link",
    "repro.cluster.network.ClusterNetwork.heal(duplex=)":
        "(a) cluster property tests heal one direction of a link",
    "repro.federated.session.FederationConfig.knobs":
        "(a) federated tests make a client byzantine (tamper, drop)",
    "repro.core.pm_data.PmDataModule.stored_row":
        "(a) test_tampered_row_fails_decryption flips a sealed row",
    "repro.bench.fig10.run_fig10(trace=)":
        "(a) test_bench injects a two-spike price trace",
    # (b) oracles
    "repro.obs.recorder.TraceRecorder.sim_view":
        "(b) its sha256 is frozen in twins.json",
    "repro.obs.recorder.TraceRecorder.sim_events":
        "(b) test_obs_integration compares two runs' sim events",
    "repro.obs.report.build_report_from_recorder":
        "(b) the report_sha256 values in twins.json are built with it",
    "repro.obs.export.mirror_breakdown":
        "(b) test_obs_integration holds the traced Table I split to the "
        "harness's own; ROADMAP 9 retires it",
    "repro.obs.export.mirror_breakdown.<locals>.sim":
        "(b) mirror_breakdown's own lookup",
    "repro.crypto.engine.EncryptionEngine(backend=)":
        "(b) tests hold the wheel to the pure AES-GCM reference",
    "repro.crypto.aes.AES._expand_key": _PURE_AES_GCM,
    "repro.crypto.aes.AES.encrypt_block": _PURE_AES_GCM,
    "repro.crypto.aes.AES.encrypt_block.<locals>.add_round_key": _PURE_AES_GCM,
    "repro.crypto.gcm._auth_tag": _PURE_AES_GCM,
    "repro.crypto.gcm._ctr_keystream": _PURE_AES_GCM,
    "repro.crypto.gcm._derive_j0": _PURE_AES_GCM,
    "repro.crypto.gcm._gf_mult": _PURE_AES_GCM,
    "repro.crypto.gcm._inc32": _PURE_AES_GCM,
    "repro.crypto.gcm._pad16": _PURE_AES_GCM,
    "repro.crypto.gcm.gcm_decrypt": _PURE_AES_GCM,
    "repro.crypto.gcm.gcm_encrypt": _PURE_AES_GCM,
    "repro.crypto.gcm.ghash": _PURE_AES_GCM,
    "repro.crypto.backend.PureBackend.bind": _PURE_AES_GCM,
    "repro.crypto.backend._PureKeyed.decrypt": _PURE_AES_GCM,
    "repro.crypto.backend._PureKeyed.encrypt": _PURE_AES_GCM,
    "repro.crypto.backend.KeyedAead.decrypt_into":
        "(b) the default the pure reference inherits; the wheel overrides it",
    "repro.crypto.backend.KeyedAead.encrypt_into":
        "(b) the default the pure reference inherits; the wheel overrides it",
    "repro.crypto.x25519.x25519":
        "(b) the pure X25519 reference the wheel is held to",
    "repro.distributed.data_parallel.DataParallelPlinius(n_conv_layers=)":
        "(b) twins.json's data-parallel row is recorded at 2 conv layers",
    "repro.distributed.data_parallel.DataParallelPlinius(filters=)":
        "(b) twins.json's data-parallel row is recorded at 4 filters",
    "repro.distributed.data_parallel.DataParallelPlinius(batch=)":
        "(b) twins.json's data-parallel row is recorded at batch 8",
    "repro.distributed.data_parallel.DataParallelPlinius(seed=)":
        "(b) twins.json's data-parallel row is recorded at its own seed",
    "repro.distributed.data_parallel.DataParallelPlinius(builder=)":
        "(b) test_equivalence_to_single_worker_bn_free holds W workers to "
        "one on a batchnorm-free model built through it",
    "repro.distributed.pipeline.PipelinePlinius(seed=)":
        "(b) twins.json's pipeline row is recorded at its own seed",
    "repro.bench.fig7.measure_model_size(recorder=)":
        "(b) test_obs_integration holds the traced Table I split to "
        "the harness's own",
    # (c) entry points and deployment settings
    "repro.cli.main(argv=)": "(c) the CLI entry point; tests pass argv",
    "repro.core.checkpoint.SsdCheckpoint(path=)":
        "(c) where the checkpoint file lives is a deployment setting",
    "repro.data.mnist.load_idx_images":
        "(c) the only path to the paper's real MNIST once its IDX files "
        "are in the repository",
    "repro.data.mnist.load_idx_labels":
        "(c) the only path to the paper's real MNIST once its IDX files "
        "are in the repository",
    "repro.data.mnist._open_maybe_gzip": "(c) the IDX loaders' file opener",
    "repro.bench.wallclock.WallclockReport.history_row":
        "(c) bench_wallclock.py --label: a full run's history row",
    "repro.bench.wallclock.WallclockReport.largest_mirror":
        "(c) bench_wallclock.py --label: a full run's history row",
    "repro.hw.undo.PreImages.release_landed":
        "(c) a CLFLUSH flush, a platform setting no figure picks",
    **{
        f"repro.obs.flight.FlightRecorder.{method}":
            "(c) the always-on recorder a deployment installs; the "
            "overhead bench's mirror cycle only counts"
        for method in ("gauge", "instant", "observe")
    },
    # (d) pinned by PATCHES or a tests/mutants.py row
    "repro.cluster.network.ClusterNetwork.send": _SEND_PATH,
    "repro.cluster.network.ClusterNetwork._deliver": _SEND_PATH,
    "repro.cluster.network.ClusterNetwork._on_deliver": _SEND_PATH,
    "repro.cluster.network.ClusterNetwork._on_heal": _SEND_PATH,
    # (f) read-only queries tests observe state through
    "repro.faults.plan.get_active_plan":
        "(f) tests and conftest check which fault plan is installed",
    "repro.faults.plan.BaseFaultPlan.total_hits": "(f) hits a plan counted",
    "repro.faults.protocol.ReplayOutcome.ok": "(f) whether a replay held",
    "repro.hw.intervals.IntervalSet.contains": "(f) interval membership",
    "repro.hw.pmem.PersistentMemoryDevice.dirty_bytes":
        "(f) bytes stored but not yet flushed",
    "repro.hw.pmem.PersistentMemoryDevice.snapshot":
        "(f) the durable image an OS-level attacker dumps",
    "repro.core.pm_data.PmDataModule.encrypted":
        "(f) whether the data matrix is sealed",
    "repro.core.pm_data.PmDataModule.shape": "(f) the data matrix's shape",
    "repro.crypto.engine.EncryptionEngine.sealed_size":
        "(f) a sealed record's size",
    "repro.obs.recorder.NullRecorder.current_span": "(f) the open span",
    "repro.obs.recorder.TraceRecorder.current_span": "(f) the open span",
    "repro.obs.recorder.TraceRecorder.find_spans": "(f) spans by name",
    "repro.obs.recorder.TraceRecorder.find_events": "(f) events by name",
    "repro.obs.metrics.CounterRegistry.get_gauge": "(f) one gauge's value",
    "repro.obs.hist.LogHistogram.buckets": "(f) the bucket counts",
    "repro.romulus.alloc.PersistentHeap.used_bytes": "(f) heap bytes in use",
    "repro.romulus.alloc.PersistentHeap.allocation_size":
        "(f) one allocation's usable bytes",
    "repro.romulus.region.RomulusRegion.read_back": "(f) the back twin's bytes",
    # (g) failure and fallback paths no clean run takes
    "repro.faults.explorer._shrink": "(g) shrinks a violating schedule",
    "repro.faults.explorer._dump_flight":
        "(g) writes a violation's flight-recorder dump",
    "repro.faults.explorer.Violation.to_dict": "(g) renders a violation",
    "repro.faults.protocol.GoldenRun.flight":
        "(g) the dump of a golden run that itself broke",
    "repro.federated.coordinator.FederatedCoordinator._exclude":
        "(g) drops a client that failed verification or timed out",
    "repro.analysis.lint.framework.Finding.location":
        "(g) renders a lint finding",
    "repro.analysis.lint.framework.Finding.to_dict":
        "(g) renders a lint finding",
    "repro.darknet.layers.base.Layer.set_parameter":
        "(g) records.open_param's fallback for a buffer that is not a "
        "writeable float32 array",
    # (h) abstract methods, base-class defaults and null-object stubs
    "repro.analysis.lint.framework.Rule.check": "(h) abstract",
    "repro.crypto.backend.AeadBackend.bind": "(h) abstract",
    "repro.crypto.backend.KeyedAead.decrypt": "(h) abstract",
    "repro.crypto.backend.KeyedAead.encrypt": "(h) abstract",
    "repro.darknet.layers.base.Layer.forward": "(h) abstract",
    "repro.darknet.layers.base.Layer.backward": "(h) abstract",
    "repro.darknet.layers.base.Layer.infer": "(h) abstract",
    "repro.darknet.layers.base.Layer.accumulate":
        "(h) the base-class default; every model the figures build "
        "starts with a convolution, which overrides it",
    "repro.faults.plan.BaseFaultPlan._on_hit": "(h) abstract",
    "repro.faults.plan.NullFaultPlan.check": "(h) null-object stub",
    "repro.faults.plan.NullFaultPlan.mutate": "(h) null-object stub",
    "repro.faults.protocol.Workload.boot": "(h) abstract",
    "repro.faults.protocol.Workload.build": "(h) abstract",
    "repro.faults.protocol.Workload.compare": "(h) abstract",
    "repro.faults.protocol.Workload.observe": "(h) abstract",
    **{
        f"repro.obs.recorder.NullRecorder.{method}": "(h) null-object stub"
        for method in (
            "begin", "complete", "end", "gauge", "instant", "observe",
            "span", "wall_now",
        )
    },
}

#: Scripts whose imports are callers: the wall-clock ledger and the
#: paper-figure benchmarks.
_ROOT_SCRIPTS = (
    "bench_wallclock.py", "bench_fig*.py", "bench_table1_breakdown.py",
    "bench_inference.py", "bench_recovery_time.py", "bench_tcb.py",
)


class _ImportGraph:
    """Import edges between ``repro`` modules, parsed — never imported.

    ``from pkg import Name`` resolves through the package ``__init__``
    to the submodule that defines ``Name``: a re-export is not a caller.
    """

    def __init__(self, src: Path) -> None:
        self.files = {}
        for path in (src / "repro").rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            self.files[".".join(parts)] = path
        self.modules = {m for m in self.files if not m.endswith(".__init__")}
        self._trees = {}

    def _tree(self, name: str) -> ast.AST:
        if name not in self._trees:
            self._trees[name] = ast.parse(self.files[name].read_text())
        return self._trees[name]

    def _defining_module(self, base: str, name: str):
        """The module behind ``from base import name`` (None: no module)."""
        if f"{base}.{name}" in self.modules:
            return f"{base}.{name}"
        if base in self.modules:
            return base
        init = f"{base}.__init__"
        if init not in self.files:
            return None
        for node in ast.walk(self._tree(init)):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        origin = self._absolute(init, node)
                        return self._defining_module(origin, alias.name)
        return None

    @staticmethod
    def _absolute(importer: str, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        package = importer.split(".")[: -node.level]
        return ".".join(package + ([node.module] if node.module else []))

    def imports_of(self, tree: ast.AST, importer: str = "") -> set:
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute(importer, node)
                found.update(
                    self._defining_module(base, a.name) for a in node.names
                )
        return found & self.modules

    def reachable(self, roots: set) -> set:
        seen, stack = set(), sorted(roots)
        while stack:
            module = stack.pop()
            if module not in seen:
                seen.add(module)
                stack.extend(self.imports_of(self._tree(module), module))
        return seen


def caller_census(repo: Path):
    """``(graph, roots)``: the import graph of ``repo`` and the modules
    its entry points name."""
    graph = _ImportGraph(repo / "src")
    roots = {"repro.cli", "repro.__main__"}
    bench = repo / "benchmarks"
    scripts = sorted((bench / "e2e").glob("*.py"))
    for pattern in _ROOT_SCRIPTS:
        scripts += sorted(bench.glob(pattern))
    for script in scripts:
        tree = ast.parse(script.read_text())
        roots |= graph.imports_of(tree)
        # The e2e tracer names the modules it patches as strings.
        roots |= graph.modules & {
            node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
        }
    return graph, roots


def test_every_module_has_a_caller():
    """No module without a caller: each one is imported, transitively,
    by the CLI, the e2e benchmark, the wall-clock ledger or a
    paper-figure script — or sits in the waiver table with its reason."""
    graph, roots = caller_census(SRC.parent)
    waived = set(CALLER_WAIVERS) & graph.modules
    assert graph.modules - graph.reachable(roots | waived) == set()
    assert len(CALLER_WAIVERS) == 110
    # A waiver whose module has gained a caller is stale.
    assert not waived & graph.reachable(roots)


# ----------------------------------------------------------------------
# Caller census per symbol: public names, defaulted keywords and
# dataclass config fields (docs/static-analysis.md, "Caller census")
# ----------------------------------------------------------------------

#: The closed list of reasons a waiver may cite, by its prefix.
WAIVER_REASONS = {
    "(a)": "a test injects a fault, tamper or impostor through it",
    "(b)": "tests compare against it as an oracle",
    "(c)": "an entry point or a deployment setting",
    "(d)": "pinned by PATCHES or by a tests/mutants.py row's source text",
    "(f)": "a read-only query tests use to observe state",
    "(g)": "a failure or fallback path no clean run takes",
    "(h)": "an abstract method, a base-class default or a null-object stub",
}

_MUTATORS = frozenset({
    "append", "extend", "insert", "update", "setdefault", "add", "pop",
    "clear", "remove", "discard",
})


def _literal(node):
    """``repr`` of a literal argument, or None for anything computed."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return None


def _unpacks(call):
    """Whether ``call`` passes ``*args`` or ``**kwargs``: then any
    parameter may be passed, and the census cannot tell which."""
    return any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    )


def _bare(node):
    """The name a call or reference ends in (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


class _Symbol:
    """One definition in ``src/repro``: its waiver key and its lines."""

    def __init__(self, key, path, node, method):
        self.key, self.path, self.node, self.method = key, path, node, method
        self.name = node.name
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = range(first, node.end_lineno + 1)

    def owns(self, path, line):
        """Whether ``path:line`` lies inside the definition itself."""
        return path == self.path and line in self.lines


class SymbolCensus:
    """Names, keywords and config fields nothing outside ``tests/`` uses.

    Callers are every ``.py`` file under ``src/repro`` (never counting a
    definition's own lines), ``benchmarks/`` (whose string constants
    count too, so each e2e ``PATCHES`` name stays pinned) and
    ``examples/``.  Everything is matched by bare name: a dead method
    that shares its name with a live one is missed, a live one is never
    flagged.  Keywords are checked only where the name is unique.
    """

    def __init__(self, repo: Path) -> None:
        src = repo / "src"
        self.trees = {
            path: ast.parse(path.read_text())
            for path in sorted((src / "repro").rglob("*.py"))
        }
        self.symbols = []
        for path, tree in list(self.trees.items()):
            module = ".".join(path.relative_to(src).with_suffix("").parts)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    key = f"{module}.{node.name}"
                    self.symbols.append(_Symbol(key, path, node, False))
                if isinstance(node, ast.ClassDef):
                    self.symbols.extend(
                        _Symbol(f"{key}.{item.name}", path, item, True)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                    )
        bench = sorted((repo / "benchmarks").rglob("*.py"))
        for path in bench + sorted((repo / "examples").glob("*.py")):
            self.trees[path] = ast.parse(path.read_text())
        self.repo = repo
        self.refs, self.calls, self.stores = {}, {}, set()
        self.forwarders, self.defines = set(), {}
        for path, tree in self.trees.items():
            self._scan(path, tree, strings=path in bench)

    def _scan(self, path, tree, strings):
        refs, calls = self.refs, self.calls
        for node in ast.walk(tree):
            name = _bare(node)
            if isinstance(node, (ast.Name, ast.Attribute)):
                refs.setdefault(name, []).append((path, node.lineno))
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store
                ):
                    self.stores.add(node.attr)
            elif isinstance(node, ast.alias) and node.asname:
                # ``from m import name as other``: ``other`` is what the
                # module then references.
                refs.setdefault(node.name, []).append((path, 0))
            elif strings and isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                for part in node.value.split("."):
                    refs.setdefault(part, []).append((path, node.lineno))
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Store
            ):
                self.stores.add(_bare(node.value))
            elif isinstance(node, ast.ClassDef):
                self._scan_class(path, node)
            elif isinstance(node, ast.FunctionDef) and node.args.kwarg:
                self.forwarders.add(node.name)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defines.setdefault(node.name, set()).add(path)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            calls.setdefault(_bare(func), []).append((path, node))
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                self.stores.add(_bare(func.value))
            if _bare(func) in ("isinstance", "issubclass"):
                continue
            # ``run_once(benchmark, fn, k=v)`` forwards its keywords to fn.
            for arg in node.args:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    forwarded = ast.Call(arg, [], node.keywords)
                    forwarded.lineno, forwarded.via = node.lineno, _bare(func)
                    calls.setdefault(_bare(arg), []).append((path, forwarded))

    def _scan_class(self, path, cls):
        """``cls(...)`` builds the class; ``super().__init__(...)`` its bases."""
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "cls":
                self.calls.setdefault(cls.name, []).append((path, node))
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _bare(func.value.func) == "super"
            ):
                for base in cls.bases:
                    self.calls.setdefault(_bare(base), []).append((path, node))

    # ------------------------------------------------------------------
    def findings(self):
        """``{waiver key: (level, what is wrong)}`` at this tree."""
        found = {}
        names = [s.name for s in self.symbols]
        for symbol in self.symbols:
            if symbol.name.startswith("_"):
                continue
            if all(symbol.owns(*ref) for ref in self.refs.get(symbol.name, ())):
                found[symbol.key] = ("name", "no caller references it")
            if names.count(symbol.name) != 1:
                continue
            node = symbol.node
            if isinstance(node, ast.ClassDef) and any(
                _bare(getattr(d, "func", d)) == "dataclass"
                for d in node.decorator_list
            ):
                found.update(self._fields(symbol))
                continue
            if isinstance(node, ast.ClassDef):
                node = next((
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"
                ), None)
                if node is None:
                    continue
            found.update(self._keywords(symbol, node))
        return found

    def bad_calls(self):
        """``path:line`` of every call that passes a uniquely named
        module-level function or class a keyword it does not declare:
        each one raises TypeError when it runs.  Methods are left out
        (``mean``, ``copy`` and ``open`` share names with library
        methods), as are calls in a file that defines its own function
        of that name.  Keywords forwarded through an argument count only
        when the outer function takes ``**kwargs``."""
        names = [s.name for s in self.symbols]
        out = []
        for symbol in self.symbols:
            accepted = _accepted(symbol.node)
            if (
                symbol.method
                or names.count(symbol.name) != 1
                or accepted is None
            ):
                continue
            for path, call in self.calls.get(symbol.name, ()):
                if getattr(call, "via", None) not in (None, *self.forwarders):
                    continue
                if path != symbol.path and path in self.defines[symbol.name]:
                    continue
                out.extend(
                    f"{path.relative_to(self.repo)}:{call.lineno}: "
                    f"{symbol.key} takes no {k.arg}="
                    for k in call.keywords
                    if k.arg is not None and k.arg not in accepted
                )
        return sorted(out)

    def _call_sites(self, symbol):
        """Calls of ``symbol``; a function's calls of itself do not
        count, a class's ``cls(...)`` in its own methods does."""
        builds = isinstance(symbol.node, ast.ClassDef)
        return [
            call for path, call in self.calls.get(symbol.name, ())
            if builds or not symbol.owns(path, call.lineno)
        ]

    def _keywords(self, symbol, fn):
        args = fn.args
        order = [a.arg for a in args.posonlyargs + args.args]
        static = any(_bare(d) == "staticmethod" for d in fn.decorator_list)
        if (symbol.method and not static) or fn is not symbol.node:
            order = order[1:]  # self / cls
        defaults = dict(zip(order[len(order) - len(args.defaults):], args.defaults))
        defaults.update(
            (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
        )
        calls = self._call_sites(symbol)
        passed = []
        for call in calls:
            if _unpacks(call):
                return {}
            passed.append(dict(zip(order, call.args)))
            passed[-1].update((k.arg, k.value) for k in call.keywords)
        out = {}
        for name, default in defaults.items():
            key = f"{symbol.key}({name}=)"
            values = {
                _literal(p[name]) if name in p else _literal(default) or "default"
                for p in passed
            }
            if not passed or None in values:
                continue
            if not any(name in p for p in passed):
                out[key] = ("keyword", "no caller passes it")
            elif len(values) == 1:
                out[key] = ("keyword", f"every caller passes {values.pop()}")
        return out

    def _fields(self, symbol):
        declared = [
            item for item in symbol.node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        order = [item.target.id for item in declared]
        set_ = set(self.stores)
        for call in self._call_sites(symbol):
            if _unpacks(call):
                return {}
            set_.update(order[: len(call.args)])
            set_.update(k.arg for k in call.keywords)
        for _, call in self.calls.get("replace", ()):
            set_.update(k.arg for k in call.keywords)
        return {
            f"{symbol.key}.{item.target.id}": ("field", "no caller sets it")
            for item in declared
            if item.value is not None
            and "ClassVar" not in ast.unparse(item.annotation)
            and not any(
                k.arg == "init" for k in getattr(item.value, "keywords", ())
            )
            and item.target.id not in set_
        }


def _accepted(node):
    """The keywords ``node`` can be called with, or None where it takes
    ``**kwargs`` or its signature is inherited."""
    if isinstance(node, ast.ClassDef):
        init = next((
            item for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        ), None)
        if init is not None:
            return _accepted(init)
        if node.bases or not any(
            _bare(getattr(d, "func", d)) == "dataclass"
            for d in node.decorator_list
        ):
            return None
        return {
            item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
        }
    if node.args.kwarg:
        return None
    return {a.arg for a in node.args.args + node.args.kwonlyargs}


def symbol_census(repo: Path, waivers):
    """``(findings, stale)``: the census findings no waiver covers, and
    the symbol waivers that cover no finding.  A waiver naming a function
    is the dynamic census's to judge (tests/test_reach.py), so it is
    stale here only once the function is gone."""
    found = SymbolCensus(repo).findings()
    unwaived = {k: v for k, v in found.items() if k not in waivers}
    defined = _modules(repo) | set(functions(repo / "src"))
    return unwaived, set(waivers) - defined - set(found)


def _modules(repo: Path):
    return _ImportGraph(repo / "src").modules


def test_every_symbol_has_a_caller():
    """No public name, defaulted keyword or config field without a
    caller outside tests/, unless waived for one of WAIVER_REASONS."""
    unwaived, stale = symbol_census(SRC.parent, CALLER_WAIVERS)
    assert unwaived == {}, "\n".join(
        f"{level} {key}: {why}" for key, (level, why) in sorted(unwaived.items())
    )
    assert stale == set(), f"stale waivers: {sorted(stale)}"


def test_every_waiver_cites_a_reason():
    for key, why in CALLER_WAIVERS.items():
        assert why[:3] in WAIVER_REASONS, (key, why)


def test_symbol_census_on_a_toy_tree(tmp_path):
    """The census finds exactly what it should on a tree built for it:
    a dead function, a keyword every caller passes as one literal, and
    a stale waiver — not the keyword passed two ways, not the waived
    name."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "toy.py").write_text(
        "def dead():\n"
        "    return 1\n"
        "\n"
        "def waived():\n"
        "    return 2\n"
        "\n"
        "def scale(x, factor=1, offset=0):\n"
        "    return x * factor + offset\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(
        "from repro.toy import scale\n"
        "\n"
        "scale(1, factor=3, offset=1)\n"
        "scale(2, 3)\n"
    )
    waivers = {
        "repro.toy.waived": "(b) kept as an oracle",
        "repro.toy.gone": "(f) names a function that no longer exists",
    }
    unwaived, stale = symbol_census(tmp_path, waivers)
    assert unwaived == {
        "repro.toy.dead": ("name", "no caller references it"),
        "repro.toy.scale(factor=)": ("keyword", "every caller passes 3"),
    }
    assert stale == {"repro.toy.gone"}


def test_no_call_passes_an_undeclared_keyword():
    """No caller outside tests/ passes a keyword its callee no longer
    takes: a signature that shrinks takes its callers with it."""
    assert SymbolCensus(SRC.parent).bad_calls() == []


def test_undeclared_keyword_census_on_a_toy_tree(tmp_path):
    """A keyword the callee dropped is found directly and through a
    ``**kwargs`` forwarder; a local function of the same name, and a
    callee that takes ``**kwargs``, are not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "toy.py").write_text(
        "def scale(x, factor=1):\n"
        "    return x * factor\n"
        "\n"
        "def loose(**options):\n"
        "    return options\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(
        "from repro.toy import loose, scale\n"
        "\n"
        "def run_once(fn, **kwargs):\n"
        "    return fn(**kwargs)\n"
        "\n"
        "scale(1, factor=2, seed=3)\n"
        "run_once(scale, x=1, offset=4)\n"
        "loose(seed=3)\n"
    )
    (tmp_path / "examples" / "local.py").write_text(
        "def scale(seed):\n"
        "    return seed\n"
        "\n"
        "scale(seed=3)\n"
    )
    assert SymbolCensus(tmp_path).bad_calls() == [
        "examples/use.py:6: repro.toy.scale takes no seed=",
        "examples/use.py:7: repro.toy.scale takes no offset=",
    ]


def test_cli_tcb_json(capsys):
    rc = main(["tcb", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    modules = {m["module"] for m in payload["modules"]}
    # obs/ and analysis/ are part of the accounting now
    assert "repro.obs.recorder" in modules
    assert "repro.analysis.lint.framework" in modules
    assert "repro.sgx.rand" in modules
    assert 0.30 < payload["reduction"] < 0.80
    sides = {m["module"]: m["side"] for m in payload["modules"]}
    assert sides["repro.sgx.rand"] == "trusted"  # the in-enclave DRNG
    assert sides["repro.obs.recorder"] == "untrusted"


# ----------------------------------------------------------------------
# Regression tests for the genuine DET001 fixes: no-arg construction
# is now deterministic (fixed-seed generator fallbacks)
# ----------------------------------------------------------------------

def test_build_mnist_cnn_default_rng_is_deterministic():
    from repro.core.models import build_mnist_cnn

    a = build_mnist_cnn(n_conv_layers=2, filters=4, batch=8)
    b = build_mnist_cnn(n_conv_layers=2, filters=4, batch=8)
    for la, lb in zip(a.layers, b.layers):
        if hasattr(la, "weights"):
            np.testing.assert_array_equal(la.weights, lb.weights)


def test_connected_layer_default_rng_is_deterministic():
    from repro.darknet.layers.connected import ConnectedLayer

    a = ConnectedLayer((16,), 8)
    b = ConnectedLayer((16,), 8)
    np.testing.assert_array_equal(a.weights, b.weights)

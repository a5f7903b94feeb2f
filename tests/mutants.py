"""The source-mutant corpus behind ``fixtures/golden/kill_matrix.json``.

Each :class:`Mutant` re-introduces one defect into a *copy* of ``src/``
by replacing ``old`` — which must occur exactly once — with ``new`` in
one file.  Three checkers are scored against every row:

* ``static`` — the rule ids ``repro lint`` reports on the mutated tree
  (held in tier-1 by ``tests/test_kill_matrix.py``);
* ``invariants`` — exit code and violated invariant ids of
  ``repro crashtest --exhaustive --format json`` on the mutated tree
  (held under the ``crashtest`` marker);
* ``tier1`` — exit code and first failure of the tier-1 suite on the
  mutated tree, the analyser's own test files excluded (they would
  trivially kill every row).  Recorded once, not re-checked.

Regenerate the fixture after adding a row (about 40 minutes on one
core, most of it the ``tier1`` column)::

    PYTHONPATH=src python -m tests.mutants > tests/fixtures/golden/kill_matrix.json
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.flow import FlowEngine
from repro.analysis.flow.project import Project
from repro.analysis.lint import (
    ModuleSource,
    default_rules,
    discover_files,
    lint_file,
    run_paths,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
KILL_MATRIX = REPO / "tests" / "fixtures" / "golden" / "kill_matrix.json"

#: Test files left out of the ``tier1`` column: the analyser's own tests
#: (and this corpus's), which lint the mutated tree and so restate the
#: ``static`` column.
TIER1_EXCLUDED = ("test_kill_matrix.py", "test_lint.py", "test_flow.py")


@dataclass(frozen=True)
class Mutant:
    """One textual defect: ``old`` -> ``new`` in ``src/<path>``."""

    name: str
    path: str
    old: str
    new: str
    defect: str


MUTANTS = (
    Mutant(
        name="region-header-first",
        path="repro/romulus/region.py",
        old=(
            "        self.device.flush(self.main_base, len(meta),"
            " self.flush_instruction)\n"
            "        self.device.flush(self.back_base, len(meta),"
            " self.flush_instruction)\n"
            "        if self.flush_instruction.needs_fence:\n"
            "            self.fence()\n"
            "        self.device.flush(self.base, HEADER_SIZE,"
            " self.flush_instruction)\n"
        ),
        new=(
            "        self.device.flush(self.base, HEADER_SIZE,"
            " self.flush_instruction)\n"
            "        if self.flush_instruction.needs_fence:\n"
            "            self.fence()\n"
            "        self.device.flush(self.main_base, len(meta),"
            " self.flush_instruction)\n"
            "        self.device.flush(self.back_base, len(meta),"
            " self.flush_instruction)\n"
        ),
        defect="the magic-bearing header is made durable before the "
        "allocator metadata and twin snapshot it vouches for",
    ),
    Mutant(
        name="pm-data-early-root",
        path="repro/core/pm_data.py",
        old="                    int(encrypted),\n                ),\n            )\n",
        new=(
            "                    int(encrypted),\n                ),\n            )\n"
            "            tx.write_u64(self.region.root_offset(DATA_ROOT),"
            " header)\n"
        ),
        defect="the data root is published with the header, before any "
        "row payload is durable",
    ),
    Mutant(
        name="flight-ring-unlocked",
        path="repro/obs/recorder.py",
        old=(
            "        self.counters.add(name, value)\n"
            "        with self._lock:\n"
            '            self.flight.add("count", name, value)\n'
        ),
        new=(
            "        self.counters.add(name, value)\n"
            '        self.flight.add("count", name, value)\n'
        ),
        defect="the flight-ring append in count escapes the lock every "
        "other flight-ring append holds",
    ),
    Mutant(
        name="checkpoint-plaintext-via-helper",
        path="repro/core/checkpoint.py",
        old=(
            "                    size = self.engine.seal_into(\n"
            "                        plaintext,\n"
            "                        record[_BUF_HEADER.size :],\n"
            "                        aad=name.encode(),\n"
            "                        iv=iv,\n"
            "                    )\n"
        ),
        new=(
            "                    size = len(plaintext)\n"
            "                    record[_BUF_HEADER.size : _BUF_HEADER.size"
            " + size] = plaintext\n"
        ),
        defect="the checkpoint copies raw parameter bytes into its record "
        "buffer, reaching the ocall sink only inside the _fwrite_chunks "
        "helper",
    ),
    Mutant(
        name="checkpoint-plaintext-same-function",
        path="repro/core/checkpoint.py",
        old="            # Phase 2 — serialize to SSD: fwrite + fsync per buffer.\n",
        new=(
            "            for _, (_, arr) in buffers:\n"
            '                self.ssd.write(self.path + ".raw", 0,'
            " arr.tobytes()[:64])\n"
            "            # Phase 2 — serialize to SSD: fwrite + fsync per buffer.\n"
        ),
        defect="save dumps the head of each plaintext buffer to the SSD "
        "next to the sealed checkpoint, between the timed phases",
    ),
    Mutant(
        name="commit-reads-wall-clock",
        path="repro/romulus/transaction.py",
        old=(
            '        """Make the transaction durable (fences 2-4 of the'
            ' protocol)."""\n'
        ),
        new=(
            '        """Make the transaction durable (fences 2-4 of the'
            ' protocol)."""\n'
            "        import time\n"
            "\n"
            "        self.started_wall = time.time()\n"
        ),
        defect="Transaction.commit reads the wall clock on the "
        "simulated-time plane",
    ),
    Mutant(
        name="serve-batch-allocates",
        path="repro/core/serving.py",
        old=(
            '            staging = arena.take("serve.staging", (max_plain,),'
            " np.uint8)\n"
        ),
        new="            staging = np.empty((max_plain,), np.uint8)\n",
        defect="handle_batch allocates its staging buffer per batch "
        "instead of taking it from the arena",
    ),
    Mutant(
        name="serve-batch-copies-rows",
        path="repro/core/serving.py",
        old="                flat[offset : offset + n] = (\n",
        new="                flat[offset : offset + n] = np.array(\n",
        defect="handle_batch copies each request's rows into a fresh array "
        "before staging them: identical bytes and arena counters, one "
        "allocation per request on the hot path",
    ),
    Mutant(
        name="fault-site-typo",
        path="repro/romulus/transaction.py",
        old='            active.check("romulus.tx.commit.pre_idle")\n',
        new='            active.check("romulus.tx.commit.pre_idel")\n',
        defect="a misspelt fault site: the explorer never schedules the "
        "pre-IDLE crash point",
    ),
    Mutant(
        name="pm-data-raw-root",
        path="repro/core/pm_data.py",
        old=(
            "        with self.region.begin_transaction() as tx:\n"
            "            tx.write_u64(self.region.root_offset(DATA_ROOT),"
            " header)\n"
            "        return len(data) * row_stored\n"
        ),
        new=(
            "        self.region.device.write(\n"
            "            self.region.root_offset(DATA_ROOT),"
            ' header.to_bytes(8, "little")\n'
            "        )\n"
            "        return len(data) * row_stored\n"
        ),
        defect="the data root is published by a raw device write, outside "
        "any Romulus transaction",
    ),
    Mutant(
        name="gateway-imports-sealing",
        path="repro/serving/gateway.py",
        old="from repro.crypto.engine import SEAL_OVERHEAD\n",
        new=(
            "from repro.crypto.engine import SEAL_OVERHEAD\n"
            "from repro.sgx.sealing import seal_data\n"
        ),
        defect="the untrusted gateway links the enclave's sealing-key "
        "machinery",
    ),
    Mutant(
        name="commit-drops-fence-4",
        path="repro/romulus/transaction.py",
        old=(
            "        # Fence 4: order the back flushes before IDLE can become"
            " durable.\n"
            "        if instr.needs_fence:\n"
            "            region.fence()\n"
        ),
        new="",
        defect="commit no longer orders the back-twin flushes before "
        "IDLE can become durable",
    ),
    Mutant(
        name="pm-data-rows-unsealed",
        path="repro/core/pm_data.py",
        old="                    sealed += self.engine.seal(row)\n",
        new="                    sealed += row\n",
        defect="encrypted training rows are written to PM without being "
        "sealed",
    ),
    Mutant(
        name="noqa-without-rationale",
        path="repro/crypto/engine.py",
        old=(
            "os.urandom  # repro: noqa[DET001] -- key generation requires"
            " real entropy outside tests\n"
        ),
        new="os.urandom  # repro: noqa[DET001]\n",
        defect="a suppression directive loses its rationale, leaving an "
        "undocumented escape hatch",
    ),
    Mutant(
        name="commit-idle-before-copy",
        path="repro/romulus/transaction.py",
        old=(
            "        # Fence 3: main is durable and consistent -> advertise"
            " COPYING.\n"
            "        region.set_state(RegionState.COPYING)\n"
            "        # Copy modified ranges main -> back, with interposed"
            " flushes.\n"
            "        for start, end in self.log.ranges():\n"
            "            device.copy_within(\n"
            "                region.main_base + start, region.back_base + start,"
            " end - start\n"
            "            )\n"
            "            device.flush(region.back_base + start, end - start,"
            " instr)\n"
            "            self._charge_memory_overhead(end - start)\n"
        ),
        new="",
        defect="commit skips the COPYING advertisement and the main-to-back "
        "twin copy, so the durable snapshot silently goes stale",
    ),
    Mutant(
        name="recovery-skip-restore",
        path="repro/romulus/region.py",
        old=(
            "        if found is RegionState.MUTATING:\n"
            "            # Main may be inconsistent: restore from back.\n"
            "            self.device.copy_within(\n"
            "                self.back_base, self.main_base, self.main_size\n"
            "            )\n"
            "            self.device.flush(\n"
            "                self.main_base, self.main_size,"
            " self.flush_instruction\n"
            "            )\n"
            "            if self.flush_instruction.needs_fence:\n"
            "                self.fence()\n"
            "            self.set_state(RegionState.IDLE)\n"
            "        elif found is RegionState.COPYING:\n"
            "            # Main is consistent: redo the copy to back (log is"
            " gone).\n"
            "            self.device.copy_within(\n"
            "                self.main_base, self.back_base, self.main_size\n"
            "            )\n"
            "            self.device.flush(\n"
            "                self.back_base, self.main_size,"
            " self.flush_instruction\n"
            "            )\n"
            "            if self.flush_instruction.needs_fence:\n"
            "                self.fence()\n"
            "            self.set_state(RegionState.IDLE)\n"
        ),
        new=(
            "        if found is not RegionState.IDLE:\n"
            "            self.set_state(RegionState.IDLE)\n"
        ),
        defect="recovery acknowledges the crash but restores nothing, "
        "trusting a possibly half-mutated main twin",
    ),
    Mutant(
        name="reuse-iv",
        path="repro/crypto/engine.py",
        old="        iv = self._rand(IV_SIZE)\n",
        new='        iv = b"\\x42" * IV_SIZE\n',
        defect="every sealed record shares one constant AES-GCM IV",
    ),
    Mutant(
        name="no-mac-check",
        path="repro/crypto/engine.py",
        old="        self._aead = self.backend.bind(self.key)\n",
        new=(
            "        self._aead = self.backend.bind(self.key)\n"
            "        from repro.crypto.backend import IntegrityError\n"
            "\n"
            "        strict = self._aead.decrypt\n"
            "        strict_into = self._aead.decrypt_into\n"
            "\n"
            '        def lax(iv, ciphertext, tag, aad=b""):\n'
            "            try:\n"
            "                return strict(iv, ciphertext, tag, aad)\n"
            "            except IntegrityError:\n"
            "                return bytes(len(ciphertext))\n"
            "\n"
            '        def lax_into(iv, ciphertext, tag, out, aad=b""):\n'
            "            try:\n"
            "                return strict_into(iv, ciphertext, tag, out, aad)\n"
            "            except IntegrityError:\n"
            "                n = len(ciphertext)\n"
            "                out[:n] = bytes(n)\n"
            "                return n\n"
            "\n"
            "        self._aead.decrypt = lax\n"
            "        self._aead.decrypt_into = lax_into\n"
        ),
        defect="authentication failures are swallowed and zero-filled "
        "plaintext is returned in place of an IntegrityError",
    ),
    Mutant(
        name="host-reboot-skip-recovery",
        path="repro/cluster/host.py",
        old="        return RomulusRegion.open(self.pm)\n",
        new=(
            '        main_size = int.from_bytes(self.pm.read(16, 8), "little")\n'
            "        return RomulusRegion(self.pm, main_size)\n"
        ),
        defect="a host reboot maps its region without Romulus recovery, so "
        "a mid-transaction crash leaves main half-mutated and trusted",
    ),
    Mutant(
        name="fed-commit-before-durable",
        path="repro/federated/coordinator.py",
        old=(
            "        self._commit_round(result, payloads)\n"
            "        self._ack_round(result)\n"
        ),
        new=(
            "        self._ack_round(result)\n"
            "        self._commit_round(result, payloads)\n"
        ),
        defect="a federated round is acknowledged before its Merkle root "
        "and sealed merged parameters are durable",
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Patch the copy of ``src/`` at ``src`` in place."""
    target = src / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: 'old' occurs {count} times")
    target.write_text(text.replace(mutant.old, mutant.new))


def mutated_copy(mutant: Mutant, dest: Path) -> Path:
    """Copy ``src/`` to ``dest`` and apply ``mutant`` there."""
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    apply(mutant, dest)
    return dest


class StaticHarness:
    """Lint a private copy of ``src/`` with one mutant applied at a time.

    The unmutated tree is parsed once; a mutant re-parses and re-runs
    the per-module rules on its one file only, then runs the
    whole-program flow pass over the shared sources.  That is exact
    because the committed tree lints clean (:meth:`clean_tree`).
    """

    def __init__(self, workdir: Path) -> None:
        self.src = workdir / "src"
        shutil.copytree(
            SRC, self.src, ignore=shutil.ignore_patterns("__pycache__")
        )
        self.sources = {
            path: ModuleSource.load(path) for path in discover_files([self.src])
        }

    def clean_tree(self) -> List[str]:
        """Rule ids reported on the unmutated copy (should be none)."""
        return sorted({f.rule_id for f in run_paths([self.src]).findings})

    def kills(self, mutant: Mutant) -> List[str]:
        """Rule ids reported on the tree with ``mutant`` applied."""
        target = self.src / mutant.path
        original = target.read_text()
        apply(mutant, self.src)
        try:
            kept, _ = lint_file(target, default_rules())
            sources = dict(self.sources)
            sources[target] = ModuleSource.load(target)
        finally:
            target.write_text(original)
        project = Project(list(sources.values()))
        flow = FlowEngine(project).analyze()
        return sorted({f.rule_id for f in kept + flow.findings})


def _run(cmd: List[str], src: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True, check=False
    )


def invariant_column(mutant: Mutant, workdir: Path) -> dict:
    """Exit code and violated invariants of the exhaustive crashtest."""
    src = mutated_copy(mutant, workdir / f"inv-{mutant.name}")
    proc = _run(
        [sys.executable, "-m", "repro", "crashtest", "--exhaustive",
         "--format", "json"],
        src,
        workdir,
    )
    shutil.rmtree(src)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"exit": proc.returncode, "violated": None}
    violated = {
        match.group(1)
        for v in doc["violations"]
        for message in v["messages"]
        for match in [re.match(r"(I\d+):", message)]
        if match
    }
    return {"exit": proc.returncode, "violated": sorted(violated)}


def tier1_column(mutant: Mutant, workdir: Path) -> dict:
    """Exit code and first failure of tier-1 (analyser tests excluded)."""
    repo = workdir / f"tier1-{mutant.name}"
    shutil.copytree(
        REPO,
        repo,
        ignore=shutil.ignore_patterns(
            "__pycache__", ".git", ".pytest_cache", ".hypothesis", "out"
        ),
    )
    apply(mutant, repo / "src")
    ignores = [f"--ignore=tests/{name}" for name in TIER1_EXCLUDED]
    proc = _run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        + ignores,
        repo / "src",
        repo,
    )
    shutil.rmtree(repo)
    failures = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    first: Optional[str] = failures[0] if failures else None
    return {"exit": proc.returncode, "first_failure": first}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        harness = StaticHarness(workdir)
        rows = {}
        for mutant in MUTANTS:
            rows[mutant.name] = {
                "static": harness.kills(mutant),
                "invariants": invariant_column(mutant, workdir),
                "tier1": tier1_column(mutant, workdir),
            }
            print(mutant.name, rows[mutant.name], file=sys.stderr)
    print(render(rows))


def render(rows: Dict[str, dict]) -> str:
    """The fixture document: one line per mutant, for reviewable diffs."""
    body = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(rows[name], sort_keys=True)}"
        for name in sorted(rows)
    )
    return '{\n "rows": {\n%s\n }\n}' % body


if __name__ == "__main__":
    main()

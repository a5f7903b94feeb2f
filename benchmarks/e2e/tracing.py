"""Benchmark-owned span tracer: per-layer attribution from outside.

The benchmark rebinds public methods of the program's classes (and a
few module-level functions, under the name their caller imported) to
wrappers that record ``(name, start, end, parent, op_id, n)`` spans on
the host wall clock.  Nothing under ``src/`` knows it is being
observed, so the numbers survive any refactor that keeps the public
names, and a PR that moves time between layers cannot also move the
probes.  Spans are kept in memory and written out when the run ends.

A span name is ``<layer>:<what>``; a layer's *self time* is the sum
over its spans of (duration minus direct children), so nested layers
(mirror -> romulus -> pmem) never count the same microsecond twice.

Counts come from the public ``stats`` dicts of the instances the
program created; :meth:`Tracer.track` registers instances by wrapping
``__init__`` so enclaves and engines created inside ``resume()`` /
``boot()`` are seen without reaching into private attributes.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


def _nbytes(args) -> int:
    """Payload size of the first argument after ``self``."""
    buf = args[1]
    return buf.nbytes if isinstance(buf, memoryview) else len(buf)


def _payload_nbytes(args) -> int:
    """``network.transmit(src, dst, payload)`` -> ``len(payload)``."""
    return len(args[3])


def _rows(args) -> int:
    """Leading dimension / length of the first argument after ``self``."""
    return len(args[1])


def _batch_size(args) -> int:
    """``pm_data.random_batch(batch, rng)`` -> ``batch``."""
    return int(args[1])


#: (module, class or None, attribute, span name, size function).
#: Module-level functions are patched in the module that *calls* them,
#: because ``from x import f`` binds the name there.
PATCHES: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.crypto.engine", "EncryptionEngine", "seal", "crypto:seal", _nbytes),
    ("repro.crypto.engine", "EncryptionEngine", "seal_into", "crypto:seal", _nbytes),
    ("repro.crypto.engine", "EncryptionEngine", "unseal", "crypto:unseal", _nbytes),
    ("repro.crypto.engine", "EncryptionEngine", "unseal_from", "crypto:unseal", _nbytes),
    ("repro.hw.pmem", "PersistentMemoryDevice", "write", "hw.pmem:store", None),
    ("repro.hw.pmem", "PersistentMemoryDevice", "write_prefilled", "hw.pmem:store", None),
    ("repro.hw.pmem", "PersistentMemoryDevice", "read", "hw.pmem:load", None),
    ("repro.hw.pmem", "PersistentMemoryDevice", "read_view", "hw.pmem:load", None),
    ("repro.hw.pmem", "PersistentMemoryDevice", "copy_within", "hw.pmem:copy", None),
    ("repro.hw.pmem", "PersistentMemoryDevice", "flush", "hw.pmem:flush", None),
    ("repro.hw.pmem", "PersistentMemoryDevice", "fence", "hw.pmem:fence", None),
    ("repro.hw.pmem", "PersistentMemoryDevice", "crash", "hw.pmem:crash", None),
    ("repro.hw.ssd", "BlockDevice", "write", "hw.ssd:write", None),
    ("repro.hw.ssd", "BlockDevice", "fsync", "hw.ssd:fsync", None),
    ("repro.hw.ssd", "BlockDevice", "read", "hw.ssd:read", None),
    ("repro.romulus.transaction", "Transaction", "write", "romulus:tx_write", None),
    ("repro.romulus.transaction", "Transaction", "write_prefilled", "romulus:tx_write", None),
    ("repro.romulus.transaction", "Transaction", "commit", "romulus:commit", None),
    ("repro.romulus.region", "RomulusRegion", "recover", "romulus:recover", None),
    ("repro.romulus.region", "RomulusRegion", "format", "romulus:format", None),
    ("repro.romulus.alloc", "PersistentHeap", "pmalloc", "romulus:pmalloc", None),
    ("repro.sgx.attestation", "InferenceSession", "seal_request", "sgx:session", None),
    ("repro.sgx.attestation", "InferenceSession", "open_request", "sgx:session", None),
    ("repro.sgx.attestation", "InferenceSession", "open_request_into", "sgx:session", None),
    ("repro.sgx.attestation", "InferenceSession", "seal_response", "sgx:session", None),
    ("repro.sgx.attestation", "InferenceSession", "open_response", "sgx:session", None),
    ("repro.core.serving", None, "establish_mux_session", "sgx:attest", None),
    ("repro.federated.session", None, "establish_mutual_session", "sgx:attest", None),
    ("repro.core.system", None, "seal_data", "sgx:sealing", None),
    ("repro.core.system", None, "unseal_data", "sgx:sealing", None),
    ("repro.sgx.ecall", "EnclaveRuntime", "ecall", "sgx:ecall", None),
    ("repro.sgx.ecall", "EnclaveRuntime", "ocall", "sgx:ocall", None),
    ("repro.darknet.network", "Network", "train_batch", "darknet:train", _rows),
    ("repro.darknet.network", "Network", "infer", "darknet:infer", _rows),
    ("repro.core.models", None, "build_network", "darknet:build", None),
    ("repro.core.mirror", "MirrorModule", "mirror_out", "core.mirror:out", None),
    ("repro.core.mirror", "MirrorModule", "mirror_in", "core.mirror:in", None),
    ("repro.core.mirror", "MirrorModule", "alloc_mirror_model", "core.mirror:alloc", None),
    ("repro.core.pm_data", "PmDataModule", "random_batch", "core.pm_data:fetch", _batch_size),
    ("repro.core.pm_data", "PmDataModule", "load", "core.pm_data:load", None),
    ("repro.core.trainer", "PliniusTrainer", "train", "core.trainer:train", None),
    ("repro.core.checkpoint", "SsdCheckpoint", "save", "core.checkpoint:save", None),
    ("repro.core.checkpoint", "SsdCheckpoint", "restore", "core.checkpoint:restore", None),
    ("repro.core.system", "PliniusSystem", "resume", "core.system:resume", None),
    ("repro.core.system", "PliniusSystem", "kill", "core.system:kill", None),
    ("repro.core.serving", "SecureInferenceService", "handle_batch", "core.serving:batch", _rows),
    ("repro.serving.gateway", "InferenceGateway", "submit", "serving:submit", None),
    ("repro.serving.gateway", "InferenceGateway", "run", "serving:run", None),
    ("repro.serving.replica_pool", "ReplicaPool", "repair", "serving:repair", None),
    ("repro.cluster.loop", "EventLoop", "push", "cluster.loop:push", None),
    ("repro.cluster.loop", "EventLoop", "run", "cluster.loop:run", None),
    ("repro.cluster.network", "ClusterNetwork", "transmit", "cluster.net:send", _payload_nbytes),
    ("repro.cluster.network", "ClusterNetwork", "send", "cluster.net:send", _payload_nbytes),
    ("repro.cluster.runtime", "Cluster", "boot", "cluster:boot", None),
    ("repro.federated.session", "FederatedSession", "boot", "federated:boot", None),
    ("repro.federated.coordinator", "FederatedCoordinator", "run_round", "federated:round", None),
    ("repro.federated.client", "FederatedClient", "submission", "federated:client_train", None),
    ("repro.federated.coordinator", None, "fedavg", "federated:merge", None),
    ("repro.federated.merkle", "MerkleTree", "__init__", "federated:merkle", None),
    ("repro.federated.ledger", "FederatedLedger", "commit_round", "federated:commit", None),
    ("repro.federated.ledger", "FederatedLedger", "load_params", "federated:load", None),
)

#: Classes whose instances expose a public ``stats`` the metrics read,
#: and the entries read from it.
TRACKED: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.hw.pmem", "PersistentMemoryDevice",
     ("stores", "flushes", "fences", "media_bytes")),
    ("repro.hw.ssd", "BlockDevice", ("writes", "fsyncs")),
    ("repro.sgx.enclave", "Enclave", ("paging_events", "paged_bytes")),
    ("repro.darknet.arena", "TensorArena", ("hits", "misses")),
)


class Tracer:
    """Span recorder plus the patch/unpatch bookkeeping."""

    def __init__(self, op_roots: frozenset = frozenset()) -> None:
        self.enabled = False
        #: phase name -> list of [name, start, end, parent, op_id, n].
        self.phases: Dict[str, List[list]] = {}
        self._spans: List[list] = []
        self._stack: List[int] = []
        self.op_id = 0
        #: Span names whose begin starts a new unit of work.
        self.op_roots = op_roots
        self._undo: List[Tuple[object, str, object]] = []
        self.instances: Dict[str, list] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every probe point; spans record only while enabled."""
        for module, cls, attr, name, size_of in PATCHES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self._patch(owner, attr, name, size_of)
        for module, cls, _keys in TRACKED:
            self._track(getattr(importlib.import_module(module), cls))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        self.enabled = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, name: str, size_of) -> None:
        original = owner.__dict__[attr]
        tracer = self
        new_op = name in self.op_roots

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            spans = tracer._spans
            stack = tracer._stack
            if new_op:
                tracer.op_id += 1
            index = len(spans)
            record = [
                name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id,
                size_of(args) if size_of is not None else 0,
            ]
            spans.append(record)
            stack.append(index)
            record[1] = _perf()
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = _perf()
                stack.pop()

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _track(self, cls) -> None:
        original = cls.__dict__["__init__"]
        registry = self.instances.setdefault(cls.__name__, [])

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            registry.append(self)

        self._undo.append((cls, "__init__", original))
        cls.__init__ = __init__

    # ------------------------------------------------------------------
    def begin_phase(self, phase: str, recording: bool = False) -> None:
        """Direct spans into the list named ``phase``.  They record from
        now on if ``recording``; otherwise only while a workload's
        ``timed()`` section has switched ``enabled`` on."""
        self._spans = self.phases.setdefault(phase, [])
        self._stack = []
        self.enabled = recording

    def stat_totals(self) -> Dict[str, float]:
        """``Class.key`` -> that ``stats`` entry summed over every
        tracked instance (dead enclaves included: the registry keeps
        them, so counts survive ``kill()``/``resume()``)."""
        totals: Dict[str, float] = {}
        for _module, cls_name, keys in TRACKED:
            for key in keys:
                total = 0
                for instance in self.instances.get(cls_name, ()):
                    stats = instance.stats
                    total += (
                        stats[key] if isinstance(stats, dict)
                        else getattr(stats, key)
                    )
                totals[f"{cls_name}.{key}"] = total
        return totals

    # ------------------------------------------------------------------
    def aggregate(self, phase: str) -> Dict[str, Dict[str, float]]:
        """name -> {count, total, self, n} for one recorded phase."""
        spans = self.phases.get(phase, [])
        children = [0.0] * len(spans)
        for _name, start, end, parent, _op, _n in spans:
            if parent >= 0:
                children[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent, _op, n) in enumerate(spans):
            row = out.setdefault(
                name, {"count": 0, "total": 0.0, "self": 0.0, "n": 0}
            )
            duration = end - start
            row["count"] += 1
            row["total"] += duration
            row["self"] += duration - children[index]
            row["n"] += n
        return out

    def durations(self, phase: str, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.phases.get(phase, []) if s[0] == name]

    def write_jsonl(self, path) -> None:
        """One JSON object per span: phase, name, start, end, parent, op, n."""
        with open(path, "w", encoding="utf-8") as out:
            for phase, spans in self.phases.items():
                for name, start, end, parent, op_id, n in spans:
                    out.write(json.dumps({
                        "phase": phase, "name": name, "start": start,
                        "end": end, "parent": parent, "op": op_id, "n": n,
                    }))
                    out.write("\n")


# ----------------------------------------------------------------------
# Span aggregates -> the per-layer metrics declared in BENCHMARK.json
# ----------------------------------------------------------------------

def _get(agg, name: str, field: str) -> float:
    row = agg.get(name)
    return row[field] if row else 0.0


def _layer(agg, prefix: str, field: str) -> float:
    return sum(
        row[field] for name, row in agg.items() if name.startswith(prefix + ":")
    )


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_self_seconds(agg) -> Dict[str, float]:
    """Self seconds per layer (the shares the README's table quotes)."""
    out: Dict[str, float] = {}
    for name, row in agg.items():
        layer = name.split(":", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self"]
    return out


def layer_metrics(
    tracer: Tracer, counts: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced ``timed`` phase (plus the set-up
    and SSD-baseline phases where a metric is defined on them).

    ``counts`` holds the :meth:`Tracer.stat_totals` deltas over exactly
    the fixed laps (the SSD entries also cover the baseline phase).
    """
    timed = tracer.aggregate("timed")
    setup = tracer.aggregate("setup")
    base = tracer.aggregate("baseline")

    def stat(cls_name: str, key: str) -> float:
        return counts.get(f"{cls_name}.{key}", 0)

    m: Dict[str, Tuple[float, str]] = {}
    busy = _layer(timed, "crypto", "self")
    calls = _layer(timed, "crypto", "count")
    nbytes = _layer(timed, "crypto", "n")
    m["crypto.busy_s"] = (busy, "s")
    m["crypto.calls"] = (calls, "count")
    m["crypto.bytes"] = (nbytes, "B")
    m["crypto.mb_per_s"] = (_ratio(nbytes / 1e6, busy), "MB/s")
    m["crypto.us_per_call"] = (_ratio(busy, calls, 1e6), "us")

    media = stat("PersistentMemoryDevice", "media_bytes")
    m["hw.pmem.self_s"] = (_layer(timed, "hw.pmem", "self"), "s")
    m["hw.pmem.flush_s"] = (_get(timed, "hw.pmem:flush", "self"), "s")
    m["hw.pmem.copy_s"] = (_get(timed, "hw.pmem:copy", "self"), "s")
    m["hw.pmem.stores"] = (stat("PersistentMemoryDevice", "stores"), "count")
    m["hw.pmem.flush_lines"] = (stat("PersistentMemoryDevice", "flushes"), "count")
    m["hw.pmem.fences"] = (stat("PersistentMemoryDevice", "fences"), "count")
    m["hw.pmem.media_bytes"] = (media, "B")
    m["hw.pmem.write_amp"] = (_ratio(media, _get(timed, "crypto:seal", "n")), "ratio")

    m["hw.ssd.self_s"] = (_layer(base, "hw.ssd", "self") + _layer(timed, "hw.ssd", "self"), "s")
    m["hw.ssd.writes"] = (stat("BlockDevice", "writes"), "count")
    m["hw.ssd.fsyncs"] = (stat("BlockDevice", "fsyncs"), "count")

    commits = _get(timed, "romulus:commit", "count")
    m["romulus.self_s"] = (_layer(timed, "romulus", "self"), "s")
    m["romulus.commits"] = (commits, "count")
    m["romulus.recoveries"] = (_get(timed, "romulus:recover", "count"), "count")
    m["romulus.recover_s"] = (_get(timed, "romulus:recover", "total"), "s")
    m["romulus.us_per_commit"] = (
        _ratio(_get(timed, "romulus:commit", "total"), commits, 1e6), "us")

    m["sgx.session_s"] = (_get(timed, "sgx:session", "self"), "s")
    m["sgx.attest_s"] = (
        _get(setup, "sgx:attest", "total") + _get(timed, "sgx:attest", "total"), "s")
    m["sgx.ecalls"] = (_get(timed, "sgx:ecall", "count") + _get(base, "sgx:ecall", "count"), "count")
    m["sgx.ocalls"] = (_get(timed, "sgx:ocall", "count") + _get(base, "sgx:ocall", "count"), "count")
    m["sgx.epc_page_swaps"] = (stat("Enclave", "paging_events"), "count")
    m["sgx.paged_bytes"] = (stat("Enclave", "paged_bytes"), "B")

    train_s = _get(timed, "darknet:train", "total")
    train_calls = _get(timed, "darknet:train", "count")
    infer_s = _get(timed, "darknet:infer", "total")
    hits = stat("TensorArena", "hits")
    m["darknet.train_s"] = (train_s, "s")
    m["darknet.train_calls"] = (train_calls, "count")
    m["darknet.ms_per_train_batch"] = (_ratio(train_s, train_calls, 1e3), "ms")
    m["darknet.infer_s"] = (infer_s, "s")
    m["darknet.infer_calls"] = (_get(timed, "darknet:infer", "count"), "count")
    m["darknet.us_per_sample"] = (
        _ratio(infer_s, _get(timed, "darknet:infer", "n"), 1e6), "us")
    m["darknet.build_s"] = (
        _get(setup, "darknet:build", "total") + _get(timed, "darknet:build", "total"), "s")
    m["darknet.arena_hit_share"] = (
        _ratio(hits, hits + stat("TensorArena", "misses")), "ratio")

    m["core.mirror.out_s"] = (_get(timed, "core.mirror:out", "total"), "s")
    m["core.mirror.in_s"] = (_get(timed, "core.mirror:in", "total"), "s")
    m["core.mirror.self_s"] = (_layer(timed, "core.mirror", "self"), "s")
    m["core.mirror.calls"] = (_layer(timed, "core.mirror", "count"), "count")
    m["core.pm_data.fetch_s"] = (_get(timed, "core.pm_data:fetch", "total"), "s")
    m["core.pm_data.rows"] = (_get(timed, "core.pm_data:fetch", "n"), "count")
    m["core.pm_data.load_s"] = (_get(setup, "core.pm_data:load", "total"), "s")
    m["core.trainer.self_s"] = (_get(timed, "core.trainer:train", "self"), "s")
    m["core.checkpoint.save_s"] = (_get(base, "core.checkpoint:save", "total"), "s")
    m["core.checkpoint.restore_s"] = (_get(base, "core.checkpoint:restore", "total"), "s")

    batches = _get(timed, "core.serving:batch", "count")
    m["core.serving.batch_s"] = (_get(timed, "core.serving:batch", "total"), "s")
    m["core.serving.self_s"] = (_get(timed, "core.serving:batch", "self"), "s")
    m["core.serving.batches"] = (batches, "count")
    m["core.serving.mean_batch"] = (
        _ratio(_get(timed, "core.serving:batch", "n"), batches), "count")
    m["serving.sched_s"] = (
        _layer(timed, "serving", "self") + _layer(timed, "cluster.loop", "self"), "s")

    events = _get(timed, "cluster.loop:push", "count")
    m["cluster.loop.events"] = (events, "count")
    m["cluster.loop.events_per_wall_s"] = (
        _ratio(events, _get(timed, "cluster.loop:run", "total")), "1/s")
    m["cluster.net.sends"] = (_get(timed, "cluster.net:send", "count"), "count")
    m["cluster.net.bytes"] = (_get(timed, "cluster.net:send", "n"), "B")
    m["cluster.net.self_s"] = (_get(timed, "cluster.net:send", "self"), "s")
    m["cluster.boot_s"] = (
        _get(timed, "cluster:boot", "total") + _get(timed, "federated:boot", "total"), "s")

    m["federated.round_s"] = (_get(timed, "federated:round", "total"), "s")
    m["federated.client_train_s"] = (_get(timed, "federated:client_train", "total"), "s")
    m["federated.merge_s"] = (_get(timed, "federated:merge", "total"), "s")
    m["federated.merkle_s"] = (_get(timed, "federated:merkle", "total"), "s")
    m["federated.commit_s"] = (_get(timed, "federated:commit", "total"), "s")
    m["federated.self_s"] = (_layer(timed, "federated", "self"), "s")
    return m

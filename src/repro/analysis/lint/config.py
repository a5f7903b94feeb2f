"""Repo-specific knowledge the rules consult.

The untrusted set is :mod:`repro.analysis.tcb`'s own tuple, imported
here; the rest are the linter-only classifications: which modules
implement the sealing machinery, which are governed by the
deterministic simulated clock, which make up the allocation-free serve
path, and which symbols must never be referenced from untrusted code.
Rules and the flow pass read these tuples and predicates directly:
there is one configuration.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

# Modules running *outside* the enclave under the paper's partitioning:
# the one trust manifest lint, flow and the TCB report all read.  Fixture
# modules can opt in via the ``# repro: lint-module[...]`` override.
from repro.analysis.tcb import UNTRUSTED_MODULES

# ----------------------------------------------------------------------
# SEC001 — seal-before-persist taint tracking
# ----------------------------------------------------------------------

#: Modules implementing the sealing machinery itself (they necessarily
#: handle plaintext next to sinks and are exempt from SEC001).
SEC_IMPLEMENTATION_MODULES: Tuple[str, ...] = (
    "repro.crypto",
    "repro.sgx.sealing",
)

#: Calls whose *result* is plaintext model/tensor bytes (taint sources).
TAINT_SOURCE_CALLS: FrozenSet[str] = frozenset(
    {"save_weights", "tobytes", "parameter_buffers", "ascontiguousarray"}
)

#: Calls whose result is freshly *decrypted* plaintext (the engine's and
#: the record codec's openers).
TAINT_DECRYPT_CALLS: FrozenSet[str] = frozenset(
    {"unseal", "unseal_from", "decrypt", "open_model", "open_upload"}
)

#: Identifier substrings marking a variable as plaintext by convention.
TAINT_NAME_MARKERS: Tuple[str, ...] = ("plaintext", "cleartext")

#: Method names whose call result is sealed/encrypted (sanitizers).
#: Checked with the decrypt list above taking precedence (``unseal``
#: contains ``seal``).
SANITIZER_MARKERS: Tuple[str, ...] = ("seal", "encrypt")

#: Sink methods: ``<receiver>.write(...)`` on these receivers persists
#: its arguments; ``ocall`` hands them to untrusted host code.
SINK_WRITE_RECEIVERS: FrozenSet[str] = frozenset(
    {"tx", "transaction", "pm", "pmem", "device", "region", "ssd", "dram"}
)
SINK_CALL_NAMES: FrozenSet[str] = frozenset({"ocall"})

# ----------------------------------------------------------------------
# SEC002 — enclave-only symbols
# ----------------------------------------------------------------------

#: Modules whose contents exist only inside the (simulated) enclave:
#: the sealing-key derivation and the in-enclave DRNG.
ENCLAVE_ONLY_MODULES: Tuple[str, ...] = (
    "repro.sgx.sealing",
    "repro.sgx.rand",
)

#: Individual enclave-only symbols (wherever they are imported from).
ENCLAVE_ONLY_NAMES: FrozenSet[str] = frozenset(
    {
        "sgx_read_rand", "SgxRandom", "seal_data", "unseal_data",
        "hkdf_sha256", "hkdf_extract", "hkdf_expand",
    }
)

# ----------------------------------------------------------------------
# DET001 — sim-time determinism
# ----------------------------------------------------------------------

#: Module prefixes exempt from DET001: the wall-clock observability lane
#: (dual-clock tracing *needs* ``perf_counter``), benchmark harnesses
#: (they measure real time by design), and the analysis tooling itself.
DET_EXEMPT_PREFIXES: Tuple[str, ...] = (
    "repro.obs",
    "repro.bench",
    "repro.analysis",
    "repro.cli",
)

#: Fully qualified callables that read a wall clock or host entropy.
NONDETERMINISTIC_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Module-level RNG functions drawing from hidden global state.
GLOBAL_RNG_FUNCTIONS: FrozenSet[str] = frozenset(
    {f"random.{name}" for name in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "seed", "getrandbits",
    )}
    | {f"numpy.random.{name}" for name in (
        "rand", "randn", "randint", "random", "random_sample", "seed",
        "shuffle", "permutation", "choice", "normal", "uniform",
        "standard_normal", "bytes",
    )}
)

#: Constructors that must receive an explicit seed to be deterministic.
SEEDED_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "repro.sgx.rand.SgxRandom",
    }
)

# ----------------------------------------------------------------------
# ALLOC001 — allocation-free serve hot path
# ----------------------------------------------------------------------

#: Modules whose steady state must not allocate numpy arrays: the
#: batched serve path and the arena that backs it.  Everything they
#: touch after warmup is an arena view; the arena's own miss path is
#: the sanctioned setup-time exception and carries per-line rationales.
HOT_PATH_MODULES: Tuple[str, ...] = (
    "repro.core.serving",
    "repro.darknet.arena",
)

#: Numpy constructors that allocate a fresh array.  ``frombuffer`` and
#: ``reshape``/``view`` are deliberately absent — they alias existing
#: storage, which is exactly what the zero-copy path is built from.
NUMPY_ALLOCATOR_CALLS: FrozenSet[str] = frozenset(
    {f"numpy.{name}" for name in (
        "zeros", "empty", "ones", "full",
        "zeros_like", "empty_like", "ones_like", "full_like",
        "concatenate", "stack", "vstack", "hstack", "dstack",
        "pad", "tile", "repeat", "array", "copy",
    )}
)

# ----------------------------------------------------------------------
# LCK001 — lock-guarded fields
# ----------------------------------------------------------------------

#: Callables whose result is a mutual-exclusion primitive; a
#: ``self.X = threading.Lock()`` assignment marks ``X`` as a lock
#: attribute of the class.
LOCK_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"threading.Lock", "threading.RLock", "multiprocessing.Lock"}
)

#: Method names that mutate a container in place.
MUTATING_METHODS: FrozenSet[str] = frozenset(
    {
        "append", "add", "update", "clear", "pop", "popitem", "remove",
        "extend", "insert", "setdefault", "discard", "appendleft",
    }
)


# ----------------------------------------------------------------------
# Module classification predicates
# ----------------------------------------------------------------------

def _in_package(module: str, packages: Tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def is_sec_implementation_module(module: str) -> bool:
    return _in_package(module, SEC_IMPLEMENTATION_MODULES)


def is_untrusted(module: str) -> bool:
    return module in UNTRUSTED_MODULES


def is_hot_path(module: str) -> bool:
    """Whether ALLOC001 applies: the allocation-free serve path."""
    return module in HOT_PATH_MODULES


def is_det_governed(module: str) -> bool:
    """Whether DET001 applies: every module except the wall-clock
    observability lane, benchmarks, and the analysis tooling."""
    return not _in_package(module, DET_EXEMPT_PREFIXES)

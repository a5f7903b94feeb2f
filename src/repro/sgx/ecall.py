"""ecall/ocall dispatch with transition-cost accounting.

The SGX SDK generates boundary-crossing stubs from an EDL file; this
module is the simulated analogue.  Trusted functions are registered as
*ecalls* (callable from the untrusted runtime), untrusted helpers as
*ocalls* (callable from trusted code).  Every crossing — two per call,
enter and return — charges the profile's transition cost, which is how
the SSD baseline's chunked ``fwrite``/``fsync`` ocalls become expensive
and the "without costly enclave transitions" claim for SGX-Romulus is
made observable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.faults import plan as faultplan
from repro.sgx.enclave import Enclave


#: stats key -> the trace counter read from it.
_COUNTERS = {"ecalls": "sgx.ecalls", "ocalls": "sgx.ocalls", "crossings": "sgx.crossings"}


class EnclaveCallError(RuntimeError):
    """Raised for calls to unregistered ecalls/ocalls."""


class EnclaveRuntime:
    """Boundary-crossing dispatcher for one enclave."""

    def __init__(self, enclave: Enclave) -> None:
        self.enclave = enclave
        self._ecalls: Dict[str, Callable[..., Any]] = {}
        self._ocalls: Dict[str, Callable[..., Any]] = {}
        self.stats = {"ecalls": 0, "ocalls": 0, "crossings": 0}
        enclave.clock.recorder.register(self.stats, _COUNTERS)

    def register_ecall(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a trusted entry point."""
        self._ecalls[name] = fn

    def register_ocall(self, name: str, fn: Callable[..., Any]) -> None:
        """Register an untrusted helper callable from the enclave."""
        self._ocalls[name] = fn

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Enter the enclave: run the trusted function ``name``."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("sgx.ecall")
        try:
            fn = self._ecalls[name]
        except KeyError:
            raise EnclaveCallError(f"no ecall registered as {name!r}") from None
        self._cross(2)  # enter + return
        self.stats["ecalls"] += 1
        return fn(*args, **kwargs)

    def ocall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Exit the enclave: run the untrusted helper ``name``."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("sgx.ocall")
        try:
            fn = self._ocalls[name]
        except KeyError:
            raise EnclaveCallError(f"no ocall registered as {name!r}") from None
        self._cross(2)  # exit + re-enter
        self.stats["ocalls"] += 1
        return fn(*args, **kwargs)

    def _cross(self, crossings: int) -> None:
        self.stats["crossings"] += crossings
        self.enclave.clock.advance(self.enclave.sgx.transition_time(crossings))

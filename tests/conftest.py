"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.system import PliniusSystem
from repro.darknet.data import DataMatrix
from repro.data import synthetic_mnist, to_data_matrix
from repro.faults import plan as faultplan
from repro.hw.pmem import PersistentMemoryDevice
from repro.obs.recorder import get_default_recorder, install_default_recorder
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM, SGX_EMLPM


def snapshot_process_defaults() -> dict:
    """Capture every module global acting as a process default.

    Two globals qualify: the obs recorder and the fault plan.  The snapshot
    pairs with :func:`restore_and_diff_process_defaults`; the autouse
    guard below uses both, and the guard's own regression test calls
    them directly.
    """
    return {
        "recorder": get_default_recorder(),
        "plan": faultplan.get_active_plan(),
    }


def restore_and_diff_process_defaults(before: dict) -> list:
    """Restore a snapshot; return a description of every leak found."""
    leaked = []
    if get_default_recorder() is not before["recorder"]:
        leaked.append("obs default recorder (install_default_recorder)")
        install_default_recorder(before["recorder"])
    if faultplan.get_active_plan() is not before["plan"]:
        leaked.append("fault plan (faults.plan.install_plan)")
        faultplan.install_plan(before["plan"])
    return leaked


@pytest.fixture(autouse=True)
def _no_leaked_process_defaults():
    """Fail any test that leaks a process-default override.

    A test that installs a process default (recorder, fault plan) and
    forgets to restore it silently
    changes the behaviour of every test that runs after it — the
    classic order-dependent flake.  This fixture snapshots both,
    restores them unconditionally, and fails the offending test by name
    so the leak is fixed at the source.
    """
    before = snapshot_process_defaults()
    yield
    leaked = restore_and_diff_process_defaults(before)
    if leaked:
        # Restored above, so one leaky test cannot poison the rest.
        pytest.fail(
            "test leaked process-default override(s): " + "; ".join(leaked)
        )


class PmOpPlan(faultplan.BaseFaultPlan):
    """Calls ``hook(op)`` at every PM store, flush and fence fault point
    (``op`` is ``"store"``, ``"flush"`` or ``"fence"``); install it with
    ``faultplan.installed``.  A hook that raises aborts the operation
    before it lands."""

    def __init__(self, hook) -> None:
        super().__init__()
        self.hook = hook

    def _on_hit(self, site, n, payload):
        if site.startswith("pm."):
            self.hook(site[len("pm."):])


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def pm_device(clock: SimClock) -> PersistentMemoryDevice:
    """A 1 MiB Optane-profile PM device."""
    return PersistentMemoryDevice(1 << 20, clock, EMLSGX_PM.pm)


@pytest.fixture(params=[SGX_EMLPM.name, EMLSGX_PM.name])
def server_name(request) -> str:
    """Parametrize a test over both paper servers."""
    return request.param


@pytest.fixture(scope="session")
def small_dataset() -> DataMatrix:
    """A small deterministic synthetic-MNIST training matrix."""
    images, labels, _, _ = synthetic_mnist(512, 1, seed=11)
    return to_data_matrix(images, labels)


@pytest.fixture(scope="session")
def tiny_dataset() -> DataMatrix:
    """An even smaller matrix for per-test system setup."""
    images, labels, _, _ = synthetic_mnist(96, 1, seed=13)
    return to_data_matrix(images, labels)


def train_in_dram(net, data, iterations, rng, input_shape=None):
    """Plain in-DRAM training, no mirroring; returns each step's loss.

    Batches of ``net.batch`` rows are drawn with replacement, as
    Darknet's ``get_random_batch`` draws them."""
    losses = []
    for _ in range(iterations):
        rows = rng.integers(0, len(data), size=net.batch)
        x = data.x[rows]
        if input_shape is not None:
            x = x.reshape((len(rows),) + tuple(input_shape))
        losses.append(net.train_batch(x, data.y[rows]))
    return losses


def make_system(
    server: str = "emlSGX-PM",
    seed: int = 7,
    pm_size: int = 64 << 20,
) -> PliniusSystem:
    """A fresh small Plinius deployment."""
    return PliniusSystem.create(server=server, seed=seed, pm_size=pm_size)


@pytest.fixture
def system(tiny_dataset: DataMatrix) -> PliniusSystem:
    """A loaded, ready-to-train system on the real-PM server."""
    sys_ = make_system()
    sys_.load_data(tiny_dataset)
    return sys_


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)

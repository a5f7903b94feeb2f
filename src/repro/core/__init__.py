"""Plinius core: the paper's primary contribution.

Wires SGX-Darknet (:mod:`repro.darknet`) and SGX-Romulus
(:mod:`repro.romulus`) together through the three mechanisms the paper
introduces:

* :class:`MirrorModule` — encrypted mirror copies of the enclave model
  on PM, synchronized every training iteration (Algorithm 3);
* :class:`PmDataModule` — encrypted, byte-addressable training data in
  PM, decrypted batch-by-batch into the enclave (Algorithm 2);
* :class:`PliniusTrainer` — the fault-tolerant training loop that
  resumes from the PM mirror after any crash (Algorithm 2);

plus the :class:`SsdCheckpoint` baseline the paper compares against and
the :class:`PliniusSystem` facade / Fig. 5 end-to-end workflow.
"""

from repro.core.checkpoint import CheckpointError, SsdCheckpoint
from repro.core.mirror import MirrorError, MirrorModule, MirrorTiming
from repro.core.models import (
    MNIST_INPUT_SHAPE,
    build_mnist_cnn,
    build_sized_cnn,
    cnn_cfg,
    mnist_cnn_config,
)
from repro.core.pm_data import PmDataError, PmDataModule
from repro.core.serving import InferenceClient, SecureInferenceService
from repro.core.system import PliniusSystem
from repro.core.trainer import IterationTiming, PliniusTrainer, TrainResult
from repro.core.workflow import WorkflowArtifacts, run_full_workflow

__all__ = [
    "MirrorModule",
    "MirrorTiming",
    "MirrorError",
    "PmDataModule",
    "PmDataError",
    "SsdCheckpoint",
    "CheckpointError",
    "PliniusTrainer",
    "TrainResult",
    "IterationTiming",
    "PliniusSystem",
    "cnn_cfg",
    "build_mnist_cnn",
    "build_sized_cnn",
    "mnist_cnn_config",
    "MNIST_INPUT_SHAPE",
    "run_full_workflow",
    "WorkflowArtifacts",
    "SecureInferenceService",
    "InferenceClient",
]

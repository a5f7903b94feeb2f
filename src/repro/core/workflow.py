"""The full ML workflow of Fig. 5, end to end.

1. The data owner encrypts her training data under her AES key and
   ships it (with the application binary) to the untrusted server's
   secondary storage.
2. She remote-attests the enclave, establishes a secure channel and
   provisions the key through it.
3. The PM-data module transforms the encrypted data on disk into
   encrypted byte-addressable data in PM.
4. The training module decrypts batches from PM and trains, with the
   model mirrored to PM each iteration.
5. The owner receives the final model sealed under her key.

Everything here runs against the real mechanisms of this reproduction:
the DH-channel carries a real key, the rows on the simulated SSD and in
simulated PM are real AES-GCM ciphertext, and the trained model really
comes back encrypted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import PliniusSystem, TrainResult
from repro.crypto import records
from repro.crypto.engine import EncryptionEngine
from repro.darknet.data import DataMatrix
from repro.darknet.network import Network
from repro.darknet.weights import save_weights
from repro.sgx.attestation import establish_channel
from repro.sgx.rand import SgxRandom  # repro: noqa[SEC002] -- the DataOwner's own CSPRNG on the client side of Fig. 3, not enclave state

#: Seeds the data owner and the system of the end-to-end run.
SEED = 3


@dataclass
class WorkflowArtifacts:
    """Everything the Fig. 5 run produces."""

    system: PliniusSystem
    network: Network
    result: TrainResult
    sealed_model: bytes  # final model, encrypted under the owner's key
    provisioned_key: bytes


class DataOwner:
    """The party that owns the data, the model and the key (Fig. 5 left)."""

    def __init__(self, seed: int = 99) -> None:
        self.rand = SgxRandom(b"data-owner-" + seed.to_bytes(4, "big"))
        self.key = EncryptionEngine.generate_key(self.rand)
        self.engine = EncryptionEngine(self.key, rand=self.rand)

    def encrypt_dataset(self, data: DataMatrix) -> bytes:
        """Serialize + row-encrypt the dataset for upload (Fig. 5 step 1)."""
        return records.seal_upload(self.engine, data.x, data.y)

    def open_model(self, sealed_model: bytes) -> bytes:
        """Decrypt the final model blob the enclave returned."""
        return records.unseal(self.engine, sealed_model, records.FINAL_MODEL)


def run_full_workflow(data: DataMatrix) -> WorkflowArtifacts:
    """Execute the complete Fig. 5 pipeline on the emlSGX-PM server:
    a 3-conv-layer, 8-filter model trained for 30 batch-32 iterations;
    returns all artifacts."""
    owner = DataOwner(seed=SEED)
    system = PliniusSystem.create(server="emlSGX-PM", seed=SEED)

    # Step 1 — ship application binary + encrypted data to the server.
    encrypted_upload = owner.encrypt_dataset(data)
    system.ssd.write("dataset.enc", 0, encrypted_upload)
    system.ssd.fsync("dataset.enc")

    # Step 2 — remote attestation + secure channel.
    owner_channel, enclave_channel = establish_channel(
        system.enclave,
        system.quoting_enclave,
        expected_measurement=system.enclave.measurement,
        rand_enclave=system.rand,
        rand_owner=owner.rand,
    )

    # Step 3 — provision the data key over the channel; the enclave
    # seals it to disk so post-crash restarts can recover it.
    protected = owner_channel.send(owner.key)
    provisioned_key = enclave_channel.receive(protected)
    system.provision_key(provisioned_key)

    # Step 4 — encrypted data on disk -> encrypted byte-addressable PM.
    # The enclave pulls the file through an ocall (sgx-darknet-helper's
    # job) and copies it across the boundary before unsealing.
    system.runtime.register_ocall(
        "fread_dataset", lambda: system.ssd.read_all("dataset.enc")
    )
    uploaded = system.runtime.ocall("fread_dataset")
    system.enclave.copy_in(len(uploaded))
    x, y = records.open_upload(system.engine, uploaded)
    system.load_data(DataMatrix(x=x, y=y), encrypted=True)

    # Step 5/6 — train with per-iteration mirroring; entered via the
    # train_model ecall (Algorithm 2).
    network = system.build_model(n_conv_layers=3, filters=8, batch=32)
    system.runtime.register_ecall(
        "train_model",
        lambda: system.train(network, iterations=30),
    )
    result = system.runtime.ecall("train_model")

    # Final model handed back sealed under the owner's key.
    sealed_model = records.seal(
        system.engine, save_weights(network), records.FINAL_MODEL
    )
    return WorkflowArtifacts(
        system=system,
        network=network,
        result=result,
        sealed_model=sealed_model,
        provisioned_key=provisioned_key,
    )

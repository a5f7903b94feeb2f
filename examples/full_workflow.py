"""The complete Fig. 5 workflow: data owner -> untrusted cloud -> model.

Walks every arrow of the paper's deployment figure with real mechanisms:
the dataset is AES-GCM-encrypted before upload, the enclave is remote-
attested, the key crosses a DH-secured channel, training data moves from
disk ciphertext to PM ciphertext, the model trains with per-iteration
mirroring, and the final model comes back sealed under the owner's key.

Run:  python examples/full_workflow.py
"""

from __future__ import annotations

from repro.core.workflow import DataOwner, run_full_workflow
from repro.darknet.weights import load_weights
from repro.data import synthetic_mnist, to_data_matrix


def main() -> None:
    print("== Plinius end-to-end workflow (Fig. 5) ==")
    images, labels, _, _ = synthetic_mnist(512, 1, seed=21)
    data = to_data_matrix(images, labels)

    artifacts = run_full_workflow(data)
    system = artifacts.system

    print(f"1. uploaded {system.ssd.file_size('dataset.enc') / 1e6:.1f} MB "
          "of encrypted training data to the untrusted server's disk")
    print("2. remote attestation verified the enclave measurement "
          f"({system.enclave.measurement.hex()[:16]}…)")
    print("3. 128-bit data key provisioned over the attested DH channel")
    print(f"4. {system.pm_data.num_rows} rows now sealed in byte-addressable "
          "PM (pm-data module)")
    print(f"5. trained {artifacts.result.final_iteration} iterations, "
          f"loss {artifacts.result.final_loss:.3f}; mirror at iteration "
          f"{system.mirror.stored_iteration()}")

    owner = DataOwner(seed=3)
    blob = owner.open_model(artifacts.sealed_model)
    fresh = system.build_model(n_conv_layers=3, filters=8, batch=32)
    seen = load_weights(fresh, blob)
    print(f"6. owner decrypted the final model: {len(blob)} bytes, "
          f"{seen} training iterations recorded")

    crossings = system.runtime.stats["crossings"]
    print(f"\nenclave boundary crossings during the run: {crossings}")
    print(f"simulated time elapsed: {system.clock.now():.3f} s")


if __name__ == "__main__":
    main()

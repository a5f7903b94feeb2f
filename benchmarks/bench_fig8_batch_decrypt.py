"""Fig. 8 — iteration time vs. batch size, encrypted vs. plaintext PM data.

5-LReLU-conv models; each training iteration decrypts one batch of rows
from PM into enclave memory.  Paper: ~1.2x average slowdown on both
servers — "a relatively small price to pay for data confidentiality".
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import run_once

from repro.bench import format_table, run_fig8

BATCH_SIZES = (16, 32, 64, 128, 256, 512)


@pytest.mark.parametrize("server", ["sgx-emlPM", "emlSGX-PM"])
def test_fig8_batch_decryption_overhead(benchmark, server):
    points = run_once(
        benchmark,
        run_fig8,
        server=server,
        batch_sizes=BATCH_SIZES,
        iterations=5,
        n_rows=1024,
    )

    print(f"\nFig. 8 — iteration time vs. batch size on {server}")
    print(
        format_table(
            ["batch", "encrypted ms", "plaintext ms", "overhead"],
            [
                [
                    p.batch_size,
                    f"{p.encrypted_seconds * 1e3:.2f}",
                    f"{p.plaintext_seconds * 1e3:.2f}",
                    f"{p.overhead:.2f}x",
                ]
                for p in points
            ],
        )
    )

    mean_overhead = float(np.mean([p.overhead for p in points]))
    print(f"mean overhead: {mean_overhead:.2f}x (paper: ~1.2x)")
    assert 1.05 < mean_overhead < 1.45
    # Iteration time increases with batch size in both modes.
    enc = [p.encrypted_seconds for p in points]
    assert enc == sorted(enc)

    benchmark.extra_info["mean_overhead"] = round(mean_overhead, 3)
    benchmark.extra_info["per_batch"] = {
        p.batch_size: round(p.overhead, 3) for p in points
    }

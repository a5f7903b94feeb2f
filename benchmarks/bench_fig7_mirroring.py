"""Fig. 7 — PM mirroring vs. SSD checkpointing across model sizes.

Models grow by stacking 512-filter convolutional layers (~9.4 MB each),
spanning both sides of the 93.5 MB usable-EPC limit on sgx-emlPM.
Each point reports save (encrypt + write) and restore (read + decrypt)
for the PM mirror and the SSD checkpoint baseline.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.bench import format_table, run_fig7

LAYER_COUNTS = (1, 3, 5, 7, 9, 11, 13)


@pytest.mark.parametrize("server", ["sgx-emlPM", "emlSGX-PM"])
def test_fig7_mirroring_vs_ssd(benchmark, server):
    records = run_once(
        benchmark,
        run_fig7,
        server=server,
        layer_counts=LAYER_COUNTS,
        filters=512,
    )

    print(f"\nFig. 7 — mirroring vs. SSD checkpointing on {server} (ms)")
    print(
        format_table(
            [
                "model MB", "EPC", "pm save", "(enc%)", "ssd save",
                "pm rest", "(read%)", "ssd rest", "save x", "rest x",
            ],
            [
                [
                    f"{r.model_mb:.0f}",
                    ">" if r.over_epc else "<",
                    f"{r.pm_save.total * 1e3:.1f}",
                    f"{100 * r.pm_save.crypto_seconds / r.pm_save.total:.0f}",
                    f"{r.ssd_save.total * 1e3:.1f}",
                    f"{r.pm_restore.total * 1e3:.1f}",
                    f"{100 * r.pm_restore.storage_seconds / r.pm_restore.total:.0f}",
                    f"{r.ssd_restore.total * 1e3:.1f}",
                    f"{r.save_speedup:.2f}",
                    f"{r.restore_speedup:.2f}",
                ]
                for r in records
            ],
        )
    )

    # Shape: Plinius wins everywhere; times grow monotonically with size.
    for r in records:
        assert r.save_speedup > 1.3
        assert r.restore_speedup > 1.3
    totals = [r.pm_save.total for r in records]
    assert totals == sorted(totals)

    if server == "sgx-emlPM":
        assert any(r.over_epc for r in records)
        # The knee: beyond-EPC speedups shrink (paper 3.5x -> 1.7x).
        below = [r.save_speedup for r in records if not r.over_epc]
        beyond = [r.save_speedup for r in records if r.over_epc]
        assert min(below) > max(beyond)

    benchmark.extra_info["save_speedups"] = [
        round(r.save_speedup, 2) for r in records
    ]
    benchmark.extra_info["restore_speedups"] = [
        round(r.restore_speedup, 2) for r in records
    ]

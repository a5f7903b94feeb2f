"""Fig. 2 — FIO read/write throughput on SSD, PM(DAX) and Ramdisk.

Paper parameters: 512 MB file per thread, 4 KB block size, sync I/O
engine, an fsync per written block, average over 3 runs.  Expected
shape: Ext4+DAX on PM is consistently far above Ext4 on SSD and close
to tmpfs-over-DRAM (GB/s vs. MB/s).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hw.fio import FioResult, run_fig2
from repro.simtime.costs import MIB
from repro.simtime.profiles import ServerProfile, get_profile


def run_fig2_table(
    server: str = "emlSGX-PM",
) -> List[Tuple[str, Dict[str, float]]]:
    """Run the Fig. 2 matrix over a 512 MiB file; returns (workload,
    {backend: MiB/s}) rows."""
    profile: ServerProfile = get_profile(server)
    table = run_fig2(profile, file_size=512 * MIB)
    rows: List[Tuple[str, Dict[str, float]]] = []
    for workload in ("seqread", "randread", "seqwrite", "randwrite"):
        results: Dict[str, FioResult] = table[workload]
        rows.append(
            (
                workload,
                {k: v.mib_per_second for k, v in results.items()},
            )
        )
    return rows

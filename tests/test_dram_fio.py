"""The FIO characterization (Fig. 2 substrate)."""

from __future__ import annotations

import pytest

from repro.hw.fio import (
    FioBackend,
    FioJob,
    FioOp,
    FioPattern,
    run_fig2,
    run_fio_job,
)
from repro.simtime.clock import SimClock
from repro.simtime.costs import KIB, MIB
from repro.simtime.profiles import EMLSGX_PM, SGX_EMLPM


class TestFio:
    def test_fig2_matrix_complete(self):
        table = run_fig2(EMLSGX_PM, file_size=16 * MIB)
        assert set(table) == {"seqread", "seqwrite", "randread", "randwrite"}
        for row in table.values():
            assert set(row) == {"ssd-ext4", "pm-dax", "ramdisk"}

    def test_pm_dax_beats_ssd_everywhere(self):
        """The paper's headline Fig. 2 observation."""
        table = run_fig2(EMLSGX_PM, file_size=16 * MIB)
        for workload, row in table.items():
            assert (
                row["pm-dax"].throughput > 5 * row["ssd-ext4"].throughput
            ), workload

    def test_pm_dax_close_to_ramdisk_reads(self):
        table = run_fig2(EMLSGX_PM, file_size=16 * MIB)
        for workload in ("seqread", "randread"):
            ratio = (
                table[workload]["ramdisk"].throughput
                / table[workload]["pm-dax"].throughput
            )
            assert 1.0 <= ratio < 5.0, workload

    def test_ssd_random_read_slower_than_sequential(self):
        table = run_fig2(EMLSGX_PM, file_size=16 * MIB)
        assert (
            table["randread"]["ssd-ext4"].throughput
            < table["seqread"]["ssd-ext4"].throughput
        )

    def test_fsync_per_block_destroys_ssd_write_throughput(self):
        synced = run_fio_job(
            FioJob(
                backend=FioBackend.SSD_EXT4,
                pattern=FioPattern.SEQUENTIAL,
                op=FioOp.WRITE,
                file_size=16 * MIB,
                fsync_per_block=True,
            ),
            EMLSGX_PM,
        )
        unsynced = run_fio_job(
            FioJob(
                backend=FioBackend.SSD_EXT4,
                pattern=FioPattern.SEQUENTIAL,
                op=FioOp.WRITE,
                file_size=16 * MIB,
                fsync_per_block=False,
            ),
            EMLSGX_PM,
        )
        assert synced.throughput < unsynced.throughput / 10

    def test_deterministic(self):
        job = FioJob(
            backend=FioBackend.PM_DAX,
            pattern=FioPattern.RANDOM,
            op=FioOp.READ,
            file_size=8 * MIB,
        )
        a = run_fio_job(job, SGX_EMLPM)
        b = run_fio_job(job, SGX_EMLPM)
        assert a.throughput == b.throughput

    def test_job_label(self):
        job = FioJob(
            backend=FioBackend.PM_DAX,
            pattern=FioPattern.RANDOM,
            op=FioOp.WRITE,
        )
        assert job.label == "randwrite"

    def test_analytic_matches_device_run_for_pm_reads(self):
        """Cross-check: the analytic FIO model vs. actually driving the
        byte-level PM device with the same access pattern."""
        from repro.hw.pmem import PersistentMemoryDevice

        size = 4 * MIB
        block = 4 * KIB
        clock = SimClock()
        dev = PersistentMemoryDevice(size, clock, EMLSGX_PM.pm)
        dev.drop_caches()
        t0 = clock.now()
        for offset in range(0, size, block):
            dev.read(offset, block)
        device_seconds = clock.now() - t0

        job = FioJob(
            backend=FioBackend.PM_DAX,
            pattern=FioPattern.SEQUENTIAL,
            op=FioOp.READ,
            file_size=size,
            block_size=block,
        )
        analytic = run_fio_job(job, EMLSGX_PM)
        # Same order of magnitude (the analytic model adds syscall cost,
        # the device adds per-load cost).
        assert device_seconds == pytest.approx(analytic.seconds, rel=0.5)

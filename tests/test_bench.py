"""Experiment harnesses: reduced-scale runs asserting the paper's shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    compute_table1,
    format_table,
    run_fig2_table,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
)
from repro.bench.fig6 import series
from repro.bench.table1 import render_table1
from repro.spot.traces import SpotTrace


class TestFig2:
    def test_rows_and_ordering(self):
        rows = run_fig2_table("emlSGX-PM")
        assert [w for w, _ in rows] == [
            "seqread", "randread", "seqwrite", "randwrite",
        ]
        for _, values in rows:
            assert values["pm-dax"] > values["ssd-ext4"]


class TestFig6:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig6(
            tx_sizes=(2, 8, 64, 512),
            array_bytes=1 << 20,
            target_swaps=512,
        )

    def test_matrix_complete(self, points):
        assert len(points) == 2 * 3 * 4  # 2 PWBs x 3 runtimes x 4 sizes

    def test_sgx_slower_than_native_in_band(self, points):
        """Paper: fences 1.6-3.7x slower in SGX-Romulus vs. native."""
        for pwb in ("clflush", "clflushopt"):
            s = series(points, pwb)
            for nat, sgx in zip(s["native"], s["sgx-romulus"]):
                assert 1.3 < nat / sgx < 3.7

    def test_scone_ahead_below_64_swaps(self, points):
        """Paper: SCONE 1.5-2.5x faster than SGX-Romulus for <=64."""
        s = series(points, "clflushopt")
        sizes = (2, 8, 64, 512)
        for i, size in enumerate(sizes):
            if size <= 64:
                ratio = s["scone"][i] / s["sgx-romulus"][i]
                assert 1.3 < ratio < 2.5, size

    def test_scone_collapses_beyond_64_swaps(self, points):
        """Paper: SGX-Romulus 1.6-6.9x faster beyond 64 swaps/tx."""
        s = series(points, "clflushopt")
        ratio = s["sgx-romulus"][3] / s["scone"][3]  # tx size 512
        assert 1.6 < ratio < 6.9


class TestFig7AndTable1:
    @pytest.fixture(scope="class")
    def records(self):
        return {
            server: run_fig7(server, layer_counts=(1, 8, 11), filters=512)
            for server in ("sgx-emlPM", "emlSGX-PM")
        }

    def test_pm_beats_ssd_everywhere(self, records):
        for server, recs in records.items():
            for r in recs:
                assert r.save_speedup > 1, (server, r.model_mb)
                assert r.restore_speedup > 1, (server, r.model_mb)

    def test_save_time_grows_with_model_size(self, records):
        for recs in records.values():
            totals = [r.pm_save.total for r in recs]
            assert totals == sorted(totals)

    def test_epc_knee_only_on_sgx_server(self, records):
        assert any(r.over_epc for r in records["sgx-emlPM"])
        assert not any(r.over_epc for r in records["emlSGX-PM"])

    def test_encrypt_dominates_saves_on_sgx_server(self, records):
        """Table Ia: encryption is the majority of save time on sgx-emlPM,
        and its share grows beyond the EPC limit."""
        recs = records["sgx-emlPM"]
        below = [r for r in recs if not r.over_epc]
        beyond = [r for r in recs if r.over_epc]
        share_below = np.mean(
            [r.pm_save.crypto_seconds / r.pm_save.total for r in below]
        )
        share_beyond = np.mean(
            [r.pm_save.crypto_seconds / r.pm_save.total for r in beyond]
        )
        assert share_below > 0.5
        assert share_beyond > share_below

    def test_write_dominates_saves_on_pm_server(self, records):
        """Table Ia: on emlSGX-PM, writes to real PM dominate saves."""
        recs = records["emlSGX-PM"]
        for r in recs:
            assert r.pm_save.storage_seconds > r.pm_save.crypto_seconds

    def test_read_share_small_on_pm_server(self, records):
        """Table Ia: reads are only ~18% of restores on emlSGX-PM."""
        for r in records["emlSGX-PM"]:
            share = r.pm_restore.storage_seconds / r.pm_restore.total
            assert share < 0.35

    def test_table1_aggregation(self, records):
        table = compute_table1(records["sgx-emlPM"])
        assert table.below.n_points == 2
        assert table.beyond is not None
        assert table.below.save_encrypt_pct + table.below.save_write_pct == (
            pytest.approx(100.0)
        )
        text = render_table1(table)
        assert "sgx-emlPM" in text

    def test_table1_requires_records(self):
        with pytest.raises(ValueError):
            compute_table1([])


class TestFig8:
    def test_encryption_overhead_in_band(self):
        points = run_fig8(
            "emlSGX-PM", batch_sizes=(32, 128), iterations=3, n_rows=256
        )
        for p in points:
            assert 1.0 < p.overhead < 1.5  # paper: ~1.2x on average

    def test_iteration_time_grows_with_batch(self):
        points = run_fig8(
            "emlSGX-PM", batch_sizes=(16, 128), iterations=2, n_rows=256
        )
        assert points[1].encrypted_seconds > points[0].encrypted_seconds


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9(
            iterations=40,
            n_crashes=3,
            n_rows=256,
            filters=4,
            batch=16,
        )

    def test_resilient_needs_no_extra_iterations(self, result):
        assert result.resilient_total_iterations == 40

    def test_non_resilient_needs_many_more(self, result):
        """Fig. 9b: restart-from-scratch inflates total iterations."""
        assert result.non_resilient_total_iterations > 40 + 10

    def test_resilient_curve_tracks_baseline(self, result):
        """Fig. 9a: no breaks at crash points — same iteration axis and
        converging losses."""
        assert result.resilient.iterations == result.baseline.iterations
        tail_gap = abs(
            np.mean(result.resilient.losses[-5:])
            - np.mean(result.baseline.losses[-5:])
        )
        assert tail_gap < 1.0

    def test_non_resilient_loss_resets_at_crashes(self, result):
        """Each restart jumps the loss back up toward untrained levels."""
        losses = result.non_resilient.losses
        initial = losses[0]
        # After the final restart there is a loss close to the initial one.
        later_max = max(losses[10:])
        assert later_max > 0.5 * initial

    def test_crash_schedule_within_range(self, result):
        assert all(0 < p < 40 for p in result.crash_points)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        trace = SpotTrace(
            timestamps=tuple(300 * i for i in range(16)),
            prices=tuple(
                0.2 if i in (3, 8) else 0.05 for i in range(16)
            ),
        )
        return run_fig10(
            target_iterations=20,
            iterations_per_interval=3,
            n_conv_layers=2,
            n_rows=256,
            trace=trace,
        )

    def test_two_interruptions(self, result):
        assert result.resilient.interruptions == 2

    def test_resilient_exact_total(self, result):
        assert result.resilient.total_iterations == 20

    def test_non_resilient_inflated_total(self, result):
        assert (
            result.non_resilient.total_iterations
            > result.resilient.total_iterations
        )

    def test_state_curve_has_both_states(self, result):
        assert 0 in result.resilient.state_curve
        assert 1 in result.resilient.state_curve


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

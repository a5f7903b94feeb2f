"""README fidelity + unit tests for benchmark-harness internals."""

from __future__ import annotations

import numpy as np
import pytest


class TestReadmeQuickstart:
    def test_readme_code_runs_verbatim_shape(self):
        """The README quickstart (smaller numbers) behaves as documented."""
        from repro import PliniusSystem
        from repro.data import synthetic_mnist, to_data_matrix

        images, labels, _, _ = synthetic_mnist(128, 1, seed=11)
        system = PliniusSystem.create(server="emlSGX-PM", seed=7)
        system.load_data(to_data_matrix(images, labels))

        model = system.build_model(n_conv_layers=5, filters=8, batch=32)
        system.train(model, iterations=6)

        system.kill()
        system.resume()
        model = system.build_model(n_conv_layers=5, filters=8, batch=32)
        result = system.train(model, iterations=12)
        assert result.resumed_from == 6
        assert result.final_iteration == 12
        assert result.final_loss > 0

    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        assert repro.PliniusSystem is not None
        assert "PliniusSystem" in repro.__all__


class TestFig7Internals:
    def test_measure_model_size_record_fields(self):
        from repro.bench.fig7 import measure_model_size

        record = measure_model_size("emlSGX-PM", layer_count=1, filters=32)
        assert record.server == "emlSGX-PM"
        assert record.model_bytes > 0
        assert record.model_mb == pytest.approx(
            record.model_bytes / (1 << 20)
        )
        assert not record.over_epc
        for timing in (
            record.pm_save, record.pm_restore,
            record.ssd_save, record.ssd_restore,
        ):
            assert timing.crypto_seconds > 0
            assert timing.storage_seconds > 0
        assert record.write_speedup > 0
        assert record.read_speedup > 0

    def test_records_are_deterministic(self):
        from repro.bench.fig7 import measure_model_size

        a = measure_model_size("emlSGX-PM", layer_count=1, filters=32)
        b = measure_model_size("emlSGX-PM", layer_count=1, filters=32)
        assert a.pm_save.total == b.pm_save.total
        assert a.ssd_restore.total == b.ssd_restore.total


class TestTable1Internals:
    def test_band_percentages_sum(self):
        from repro.bench.fig7 import run_fig7
        from repro.bench.table1 import compute_table1

        records = run_fig7("emlSGX-PM", layer_counts=(1, 2), filters=32)
        table = compute_table1(records)
        band = table.below
        assert band.save_encrypt_pct + band.save_write_pct == pytest.approx(100)
        assert band.restore_read_pct + band.restore_decrypt_pct == (
            pytest.approx(100)
        )
        assert band.n_points == 2
        assert table.beyond is None

    def test_render_handles_missing_beyond(self):
        from repro.bench.fig7 import run_fig7
        from repro.bench.table1 import compute_table1, render_table1

        records = run_fig7("emlSGX-PM", layer_counts=(1,), filters=32)
        text = render_table1(compute_table1(records))
        assert "no beyond-EPC points" in text
        assert "--" in text


class TestFig6Internals:
    def test_series_grouping(self):
        from repro.bench.fig6 import Fig6Point, series

        points = [
            Fig6Point("native", "clflush", 2, 100.0),
            Fig6Point("native", "clflushopt", 2, 200.0),
            Fig6Point("scone", "clflush", 2, 50.0),
            Fig6Point("native", "clflush", 4, 110.0),
        ]
        grouped = series(points, "clflush")
        assert grouped == {"native": [100.0, 110.0], "scone": [50.0]}


class TestModelZoo:
    def test_build_sized_cnn_hits_target(self):
        from repro.core.models import build_sized_cnn

        # The first (1-channel) conv is tiny, so the realized size
        # undershoots by ~one layer; the approximation tightens as the
        # target grows.
        target = 50 << 20
        net = build_sized_cnn(target, rng=np.random.default_rng(0))
        assert 0.6 * target < net.param_bytes < 1.4 * target

    def test_cnn_cfg_validates(self):
        from repro.core.models import cnn_cfg

        with pytest.raises(ValueError):
            cnn_cfg(n_conv_layers=0)

    def test_mnist_cnn_config_roundtrip(self):
        from repro.core.models import build_mnist_cnn

        net = build_mnist_cnn(n_conv_layers=2, filters=4)
        assert net.batch == 128

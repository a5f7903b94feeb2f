"""Spot-instance traces and the kill/resume simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.system import PliniusSystem
from repro.spot import SpotSimulator, SpotTrace, synthetic_trace
from tests.conftest import make_system


class TestTraces:
    def test_synthetic_deterministic(self):
        a = synthetic_trace()
        b = synthetic_trace()
        assert a == b

    def test_paper_bid_yields_two_interruptions(self):
        """Fig. 10b: bid 0.0955 -> 2 interruptions on the default trace."""
        trace = synthetic_trace()
        assert trace.interruptions(0.0955) == 2

    def test_timestamps_are_5_minute_intervals(self):
        trace = synthetic_trace()
        diffs = np.diff(trace.timestamps)
        assert (diffs == 300).all()

    def test_high_bid_never_interrupted(self):
        trace = synthetic_trace()
        assert trace.interruptions(10.0) == 0
        assert all(trace.running_mask(10.0))

    def test_low_bid_never_runs(self):
        trace = synthetic_trace()
        assert not any(trace.running_mask(0.0))

    def test_too_short_trace_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            SpotTrace(timestamps=(0,), prices=(0.09,))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SpotTrace(timestamps=(0, 300), prices=(0.09,))


def spike_trace():
    """A short trace: run 4, out 2, run 4, out 2, run rest."""
    prices = []
    for i in range(20):
        prices.append(0.2 if i in (4, 5, 10, 11) else 0.05)
    return SpotTrace(
        timestamps=tuple(300 * i for i in range(20)),
        prices=tuple(prices),
    )


class TestSimulator:
    def make_sim(self, crash_resilient: bool, tiny_dataset):
        system = make_system()
        return SpotSimulator(
            system,
            tiny_dataset,
            max_bid=0.0955,
            n_conv_layers=2,
            iterations_per_interval=3,
            crash_resilient=crash_resilient,
        )

    def test_resilient_run_reaches_target_in_exact_iterations(
        self, tiny_dataset
    ):
        sim = self.make_sim(True, tiny_dataset)
        result = sim.run(spike_trace(), target_iterations=24)
        assert result.reached_target
        assert result.total_iterations == 24  # no redone work
        assert result.interruptions == 2
        assert result.restarts == 2

    def test_non_resilient_redoes_work(self, tiny_dataset):
        sim = self.make_sim(False, tiny_dataset)
        result = sim.run(spike_trace(), target_iterations=24)
        assert result.reached_target
        assert result.total_iterations > 24  # combined count inflated

    def test_state_curve_matches_trace(self, tiny_dataset):
        sim = self.make_sim(True, tiny_dataset)
        result = sim.run(spike_trace(), target_iterations=200)
        # Never running while the price is above the bid.
        for state, price in zip(result.state_curve, spike_trace().prices):
            if price > 0.0955:
                assert state == 0

    def test_state_curve_zero_after_completion(self, tiny_dataset):
        sim = self.make_sim(True, tiny_dataset)
        result = sim.run(spike_trace(), target_iterations=6)
        # Done after 2 intervals; everything after is 0.
        assert result.state_curve[0] == 1
        assert all(s == 0 for s in result.state_curve[2:])

    def test_loss_logged_against_combined_axis(self, tiny_dataset):
        sim = self.make_sim(False, tiny_dataset)
        result = sim.run(spike_trace(), target_iterations=24)
        assert result.log.iterations == list(
            range(1, result.total_iterations + 1)
        )

    def test_simulator_loads_data_once(self, tiny_dataset):
        system = make_system()
        system.load_data(tiny_dataset)
        # Constructing a simulator over a loaded system must not re-load.
        SpotSimulator(system, tiny_dataset, crash_resilient=True)
        assert system.pm_data.num_rows == len(tiny_dataset)


class TestShippedArtifacts:
    """The repository ships the trace and configs, as the paper's does
    ("The spot traces used and our simulation scripts are available in
    the Plinius repository")."""

    def test_shipped_trace_loads_and_matches_generator(self):
        from pathlib import Path

        rows = np.loadtxt(
            Path("assets/traces/ec2_spot_trace.csv"), delimiter=",", skiprows=1
        )
        trace = SpotTrace(
            timestamps=tuple(int(t) for t in rows[:, 0]),
            prices=tuple(rows[:, 1]),
        )
        assert trace.interruptions(0.0955) == 2
        regenerated = synthetic_trace()
        np.testing.assert_allclose(
            trace.prices, regenerated.prices, atol=1e-6
        )

    def test_shipped_configs_build(self):
        from pathlib import Path

        from repro.darknet import build_network, parse_cfg

        for name, convs in (("mnist_5conv.cfg", 5), ("mnist_12conv.cfg", 12)):
            config = parse_cfg(Path(f"assets/configs/{name}").read_text())
            net = build_network(config, np.random.default_rng(0))
            n_convs = sum(
                1 for layer in net.layers if layer.kind == "convolutional"
            )
            assert n_convs == convs

"""Spot-instance training: survive market-driven evictions (Fig. 10).

Plays a 5-minute-interval EC2 spot-price trace against a maximum bid;
whenever the market overtakes the bid the training process is killed,
and it resumes from the encrypted PM mirror when the price drops back.

Run:  python examples/spot_training.py
"""

from __future__ import annotations

from repro import PliniusSystem
from repro.data import synthetic_mnist, to_data_matrix
from repro.spot import SpotSimulator, synthetic_trace

MAX_BID = 0.0955
TARGET = 200


def sparkline(states) -> str:
    return "".join("#" if s else "." for s in states)


def main() -> None:
    print("== Plinius on a spot instance ==")
    trace = synthetic_trace()
    print(f"trace: {len(trace)} five-minute intervals, "
          f"{trace.interruptions(MAX_BID)} interruptions at bid {MAX_BID}")

    images, labels, _, _ = synthetic_mnist(1024, 1, seed=7)
    data = to_data_matrix(images, labels)

    for resilient in (True, False):
        system = PliniusSystem.create(server="emlSGX-PM", seed=7)
        simulator = SpotSimulator(
            system,
            data,
            max_bid=MAX_BID,
            n_conv_layers=5,
            iterations_per_interval=4,
            crash_resilient=resilient,
        )
        result = simulator.run(trace, target_iterations=TARGET)
        label = "crash-resilient" if resilient else "non-resilient "
        print(f"\n{label}: {result.total_iterations} combined iterations "
              f"(target {TARGET}), {result.interruptions} interruptions, "
              f"{result.restarts} restarts, "
              f"final loss {result.log.final_loss:.3f}")
        print(f"instance state: {sparkline(result.state_curve)}")

    print("\nThe non-resilient job redoes every iteration lost to an "
          "eviction; the Plinius job pays nothing beyond the target.")


if __name__ == "__main__":
    main()

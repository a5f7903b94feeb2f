"""Drive Plinius training through a spot-instance kill/resume schedule.

"To simulate spot model training, we set a maximum bid price in our
simulator script, and our simulation algorithm periodically (every 5
minutes) compares the market price at each timestamp in the spot trace
to our bid price.  If max_bid > market_price, our training process is
launched (or continues...).  Otherwise, the training process is killed."
(Section VI.)

Each running interval executes a fixed number of training iterations;
at a running -> killed transition the whole system is killed (enclave
destroyed, DRAM lost, PM power-fails) and at the next killed -> running
transition it resumes — through the PM mirror if crash-resilient, from
scratch otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.system import PliniusSystem
from repro.darknet.data import DataMatrix
from repro.darknet.train import TrainingLog
from repro.spot.traces import SpotTrace


@dataclass
class SpotRunResult:
    """Outcome of a spot-simulated training run (Fig. 10's three panels)."""

    log: TrainingLog  # (a)/(c): loss vs. combined iteration count
    state_curve: List[int]  # (b): 1 = running, 0 = killed, per interval
    interruptions: int
    total_iterations: int  # combined count from when training first began
    target_iterations: int
    restarts: int

    @property
    def reached_target(self) -> bool:
        return self.total_iterations >= self.target_iterations


class SpotSimulator:
    """Runs one model-training job (a 4-filter model at batch 32) on a
    (simulated) spot instance."""

    def __init__(
        self,
        system: PliniusSystem,
        data: DataMatrix,
        max_bid: float = 0.0955,
        n_conv_layers: int = 12,
        iterations_per_interval: int = 25,
        crash_resilient: bool = True,
    ) -> None:
        self.system = system
        self.max_bid = max_bid
        self.n_conv_layers = n_conv_layers
        self.iterations_per_interval = iterations_per_interval
        self.crash_resilient = crash_resilient
        if not system.pm_data.exists():
            system.load_data(data)

    def _fresh_model(self):
        return self.system.build_model(
            n_conv_layers=self.n_conv_layers, filters=4, batch=32
        )

    def run(self, trace: SpotTrace, target_iterations: int = 500) -> SpotRunResult:
        """Train until the model accumulates ``target_iterations``.

        A non-resilient job restarts from iteration 0 after every kill,
        so its *combined* iteration count (the paper's Fig. 10c x-axis)
        exceeds the target.
        """
        log = TrainingLog()
        state_curve: List[int] = []
        interruptions = 0
        restarts = 0
        total_iterations = 0
        network = self._fresh_model()
        was_running = False
        done = False

        for price in trace.prices:
            running = self.max_bid > price
            state_curve.append(1 if running and not done else 0)
            if done:
                continue
            if running:
                if not was_running and total_iterations > 0:
                    # killed -> running: restart the process.
                    self.system.resume()
                    network = self._fresh_model()
                    restarts += 1
                goal = min(
                    network.iteration + self.iterations_per_interval,
                    target_iterations,
                )
                result = self.system.train(
                    network,
                    iterations=goal,
                    crash_resilient=self.crash_resilient,
                )
                # Re-log against the combined iteration axis.
                for loss in result.log.losses:
                    total_iterations += 1
                    log.record(total_iterations, loss)
                if network.iteration >= target_iterations:
                    done = True
            elif was_running:
                # running -> killed: the spot market reclaimed us.
                interruptions += 1
                self.system.kill()
            was_running = running

        return SpotRunResult(
            log=log,
            state_curve=state_curve,
            interruptions=interruptions,
            total_iterations=total_iterations,
            target_iterations=target_iterations,
            restarts=restarts,
        )

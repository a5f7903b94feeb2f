"""Extension — distributed training over multiple enclaves.

The paper's future work (Sections VI/VIII): distribute the training job
over multiple secure CPUs to overcome the EPC limitation.  Two
quantified results:

1. **Pipeline sharding beats EPC paging**: a ~100 MB model in one
   enclave pages heavily on sgx-emlPM (working set > 93.5 MB); the same
   model split over 2 or 4 enclaves keeps each stage below the limit —
   per-iteration simulated time drops despite the added sealed
   activation transfers.
2. **Data-parallel compute scaling**: per-step compute shrinks with the
   worker count while sealed gradient averaging adds a model-size-
   dependent communication term.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import format_table
from repro.data import synthetic_mnist, to_data_matrix
from repro.distributed import DataParallelPlinius, PipelinePlinius

# A parameter-heavy, compute-light architecture (stacked wide dense
# layers, ~101 MB of weights) — crosses the EPC limit in one enclave.
_WIDE_CFG = """
[net]
batch=8
learning_rate=0.05
momentum=0.9
decay=0.0005
height=45
width=45
channels=1

[connected]
output=2048
activation=leaky

[connected]
output=2048
activation=leaky

[connected]
output=2048
activation=leaky

[connected]
output=2048
activation=leaky

[connected]
output=2048
activation=leaky

[connected]
output=2048
activation=leaky

[connected]
output=10
activation=linear

[softmax]
"""


def _flat_dataset(n: int = 64):
    images, labels, _, _ = synthetic_mnist(n, 1, seed=5)
    data = to_data_matrix(images, labels)
    # Pad 784 features up to 45*45 = 2025 for the wide net.
    import numpy as np

    x = np.zeros((n, 2025), dtype=np.float32)
    x[:, :784] = data.x
    from repro.darknet.data import DataMatrix

    return DataMatrix(x=x, y=data.y)


def _pipeline_point(n_stages: int) -> dict:
    data = _flat_dataset()
    pipe = PipelinePlinius(
        data,
        n_stages=n_stages,
        batch=8,
        cfg_text=_WIDE_CFG,
        input_shape=(2025,),
    )
    result = pipe.train(3)
    return {
        "stages": n_stages,
        "model_mb": pipe.total_param_bytes / (1 << 20),
        "any_over_epc": any(result.stage_over_epc),
        "seconds_per_iter": result.sim_seconds / result.iterations_run,
    }


def _pipeline_sweep():
    return [_pipeline_point(n) for n in (1, 2, 4)]


def test_pipeline_sharding_beats_epc_paging(benchmark):
    rows = run_once(benchmark, _pipeline_sweep)

    print("\nExtension — pipeline sharding vs. the EPC limit (sgx-emlPM)")
    print(
        format_table(
            ["stages", "model MB", "over EPC?", "sim s/iter"],
            [
                [
                    r["stages"],
                    f"{r['model_mb']:.0f}",
                    "yes" if r["any_over_epc"] else "no",
                    f"{r['seconds_per_iter']:.3f}",
                ]
                for r in rows
            ],
        )
    )

    single, two, four = rows
    assert single["any_over_epc"]  # one enclave pages
    assert not two["any_over_epc"] and not four["any_over_epc"]
    # Splitting eliminates paging and wins despite sealed transfers.
    assert two["seconds_per_iter"] < single["seconds_per_iter"]
    benchmark.extra_info["speedup_2_stages"] = round(
        single["seconds_per_iter"] / two["seconds_per_iter"], 2
    )


def _dp_point(n_workers: int) -> dict:
    images, labels, _, _ = synthetic_mnist(256, 1, seed=5)
    data = to_data_matrix(images, labels)
    dp = DataParallelPlinius(
        data, n_workers=n_workers, n_conv_layers=3, filters=8, batch=32
    )
    result = dp.train(3)
    return {
        "workers": n_workers,
        "compute": result.compute_seconds / result.iterations_run,
        "comm": result.comm_seconds / result.iterations_run,
        "total": result.sim_seconds / result.iterations_run,
    }


def _dp_sweep():
    return [_dp_point(n) for n in (1, 2, 4)]


def test_data_parallel_scaling(benchmark):
    rows = run_once(benchmark, _dp_sweep)

    print("\nExtension — data-parallel scaling (emlSGX-PM)")
    print(
        format_table(
            ["workers", "compute ms/iter", "comm ms/iter", "total ms/iter"],
            [
                [
                    r["workers"],
                    f"{r['compute'] * 1e3:.2f}",
                    f"{r['comm'] * 1e3:.3f}",
                    f"{r['total'] * 1e3:.2f}",
                ]
                for r in rows
            ],
        )
    )

    computes = [r["compute"] for r in rows]
    assert computes == sorted(computes, reverse=True)  # shrinks with W
    assert rows[0]["comm"] <= rows[1]["comm"] + 1e-9  # comm never helps
    benchmark.extra_info["compute_speedup_4w"] = round(
        rows[0]["compute"] / rows[2]["compute"], 2
    )

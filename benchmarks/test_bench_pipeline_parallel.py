"""Benchmark: parallel linkage engine on the Music-1M weak-label analogue.

Runs the same corpus through the single-process engine and through
``ShardedPipeline`` at one and four workers, and checks the claims: scores
are bit-equal to the batch engine at every worker count, and the 4-worker
run achieves near-linear speedup — the latter only asserted on machines
that actually have 4 CPUs, since a 1-core box can measure the overhead
honestly but cannot exhibit parallelism.
"""

import pytest

from repro.bench.runner import _stage_pipeline_parallel


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_parallel(benchmark, bench_scale, bench_seed):
    extras = benchmark.pedantic(
        lambda: _stage_pipeline_parallel(bench_scale, bench_seed),
        rounds=1, iterations=1)
    print()
    print({key: round(value, 4) for key, value in extras.items()})

    # Parity is an exact invariant regardless of hardware.
    assert extras["sharded_parity"] == 1.0, (
        "4-worker clusters diverged from the single-process run")
    assert extras["sharded_bitwise_parity"] == 1.0, (
        "1- or 4-worker scores are not bit-identical to the batch engine")
    # The speedup floor applies only where 4 workers have 4 cores to run on.
    if extras["cpu_count"] >= 4 and extras["used_processes"]:
        assert extras["speedup_4w"] >= 3.0, (
            f"parallel speedup {extras['speedup_4w']:.2f}x at 4 workers on "
            f"{extras['cpu_count']:.0f} CPUs is below the 3x floor")

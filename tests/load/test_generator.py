"""Load generator units plus one small real run against a loopback
service cluster."""

import asyncio

import pytest

from repro.cluster import LocalCluster
from repro.errors import ConfigurationError
from repro.load import LoadGenerator, LoadReport, percentile
from repro.svc import start_service

PERIOD = 0.03


# ------------------------------------------------------------------ percentile
def test_percentile_nearest_rank():
    samples = [0.5, 0.1, 0.3, 0.2, 0.4]
    assert percentile(samples, 0.5) == 0.3
    assert percentile(samples, 0.0) == 0.1
    assert percentile(samples, 1.0) == 0.5
    assert percentile(samples, 0.99) == 0.5
    assert percentile([7.0], 0.5) == 7.0


def test_percentile_empty_and_bad_quantile():
    assert percentile([], 0.5) is None
    with pytest.raises(ConfigurationError):
        percentile([1.0], 1.5)
    with pytest.raises(ConfigurationError):
        percentile([1.0], -0.1)


# ---------------------------------------------------------------------- report
def test_report_summary_math():
    report = LoadReport(mode="closed", clients=4, duration=2.0,
                        target_rate=None)
    report.attempted = 12
    report.acked = 10
    report.errors = 2
    report.latencies = [0.010 * (i + 1) for i in range(10)]
    summary = report.summary()
    assert summary["acked_per_s"] == 5.0
    assert summary["p50_ms"] == 50.0
    assert summary["p99_ms"] == 100.0
    assert "acked=10" in report.render()


def test_report_with_no_acks_has_none_latencies():
    report = LoadReport(mode="open", clients=1, duration=1.0, target_rate=5.0)
    summary = report.summary()
    assert summary["p50_ms"] is None
    assert report.achieved_rate == 0.0


# ------------------------------------------------------------------ validation
def test_constructor_validation():
    addrs = [("127.0.0.1", 1)]
    with pytest.raises(ConfigurationError):
        LoadGenerator(addrs, mode="bursty")
    with pytest.raises(ConfigurationError):
        LoadGenerator(addrs, clients=0)
    with pytest.raises(ConfigurationError):
        LoadGenerator(addrs, mode="open")  # no rate
    with pytest.raises(ConfigurationError):
        LoadGenerator(addrs, mode="open", rate=0)


# ------------------------------------------------------------------- real runs
def load_test(make_generator):
    """Boot a loopback rsm service, run one generator against it."""

    async def run():
        cluster = LocalCluster(3, transport="loopback")
        stacks = cluster.deploy_standard_stack(stack="rsm", period=PERIOD)
        await cluster.start()
        fronts = await start_service(cluster, stacks)
        try:
            generator = make_generator(
                [front.local_address for front in fronts]
            )
            return await generator.run(), generator
        finally:
            for front in fronts:
                await front.close()
            await cluster.stop()

    return asyncio.run(run())


def test_closed_loop_run_acks_and_records_latency():
    report, generator = load_test(
        lambda addrs: LoadGenerator(
            addrs, clients=5, mode="closed", duration=1.0,
            request_timeout=10.0, seed=1,
        )
    )
    assert report.acked > 0
    assert report.errors == 0
    assert report.attempted >= report.acked
    assert len(report.latencies) == report.acked
    assert report.duration >= 1.0
    assert report.latency(0.5) > 0
    # Every client owns one key; acked writes name (key, seq, value).
    for client_id, (key, seq, value) in report.last_acked_put.items():
        assert client_id.startswith("load-")
        assert key.startswith("k")
        assert seq >= 0 and value >= 0
    # The shared registry histogram saw the same acks.
    series = generator.metrics.snapshot()["svc_request_latency_seconds"]
    observed = sum(entry["value"]["count"] for entry in series)
    assert observed == report.acked


def test_open_loop_sheds_when_demand_exceeds_the_pool():
    # 2 closed-loop clients get ≈ 500-700 commands/s from this service;
    # at 8000/s, over 10× that, most ticks find no free client and must
    # be counted as shed, not queued.
    report, _ = load_test(
        lambda addrs: LoadGenerator(
            addrs, clients=2, mode="open", rate=8000.0, duration=1.0,
            request_timeout=10.0, seed=1,
        )
    )
    assert report.acked > 0
    assert report.shed > 0
    assert report.attempted + report.shed >= 100

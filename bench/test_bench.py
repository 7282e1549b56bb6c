"""Tests of the benchmark itself: repeatable counts, clean unwrapping, counted failures."""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import itertools  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import sectorlap.cli  # noqa: E402
from sectorlap.quadrature import IntegralResult  # noqa: E402


def _small_ops(workdir):
    """One cycle of CLI commands plus two numeric radius scans: about a second of work."""
    cli_ops = itertools.islice(workloads.cli_closed_form(3, str(workdir)), len(workloads.CLI_KINDS))
    radius_ops = [workloads.radius_op(fn_id, workloads.BOUNDARY_POLE[fn_id] - 1.2) for fn_id in ("exp:a=1", "trig")]
    return list(cli_ops) + radius_ops


def _traced_counts(workdir):
    tracer = tracing.Tracer()
    with tracer.installed():
        result = run.measure(_small_ops(workdir), tracer=tracer)
    assert not result.failures
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"}, tracer


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, tracer = _traced_counts(tmp_path)
    second, _ = _traced_counts(tmp_path)
    assert first == second
    for key in ("quadrature.calls", "catalog.eval_calls", "laplace.ray_transforms", "probe.scans", "cli.invocations"):
        assert first[key] > 0, key
    ids = {span[1] for span in tracer.spans}
    assert all(parent == 0 or parent in ids for _, _, parent, *_ in tracer.spans)


def test_every_wrapped_binding_is_restored(tmp_path):
    before = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            assert all(getattr(m, a) is not b for (m, a, _), b in zip(tracing.WRAPPED, before))
            raise RuntimeError("leave the block by an exception")
    except RuntimeError:
        pass
    _traced_counts(tmp_path)
    after = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    assert all(a is b for a, b in zip(after, before))


def test_wrong_output_value_counts_as_failed(tmp_path, monkeypatch):
    original = sectorlap.cli.directional_transform

    def off_by_a_millionth(query):
        res = original(query)
        return IntegralResult(res.value * (1 + 1e-6), res.est_error, res.truncation_T, res.panels_used)

    monkeypatch.setattr(sectorlap.cli, "directional_transform", off_by_a_millionth)
    ops = workloads.cli_closed_form(5, str(tmp_path))
    result = run.measure(ops, limit=len(workloads.CLI_KINDS))
    assert result.attempted == len(workloads.CLI_KINDS)
    assert len(result.failures) == 1
    assert "transform[theta]" in result.failures[0]
    assert len(result.latencies_s) == result.attempted - 1


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(3000, 99.0) == 99.0
    assert run.tail_percentile(3000, 75.0) == 75.0
    assert run.tail_percentile(120, 99.0) == 90.0
    assert run.tail_percentile(60, 99.0) == 75.0
    assert run.tail_percentile(15, 75.0) == 50.0  # short runs fall back to the median


def test_harrell_davis_quantile():
    assert abs(run.hd_quantile([2.0] * 7, 90.0) - 2.0) < 1e-12
    assert abs(run.hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) - 3.0) < 1e-12  # symmetric samples
    values = sorted(float(v) for v in range(1, 1001))
    assert abs(run.hd_quantile(values, 99.0) - 990.0) < 2.0


def test_speed_probe_scales_by_the_kernel_time_around_an_operation():
    probe = hostspeed.SpeedProbe(period_s=0.1)
    probe.starts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    probe.durations = [1e-3, 1e-3, 2e-3, 2e-3, 2e-3, 1e-3, 1e-3]
    nominal = hostspeed.NOMINAL_S
    # an operation from 0.3 to 0.34 is scaled by the samples at 0.2-0.4, all at half speed
    assert abs(probe.corrected(0.3, 0.3 + 0.04, 0.004) - 0.036 * nominal / 2e-3) < 1e-12
    # a window without samples falls back to the neighbouring ones
    probe.starts, probe.durations = [0.0, 5.0], [1e-3, 3e-3]
    assert abs(probe.corrected(2.0, 2.01, 0.0) - 0.01 * nominal / 2e-3) < 1e-12


def test_speed_probe_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe(period_s=0.01).running() as probe:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 3

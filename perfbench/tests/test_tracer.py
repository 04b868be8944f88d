"""Tests of the benchmark's own machinery: tracer, self times, tail rule, launcher.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cs_sounding  # noqa: E402
from cs_sounding import config, numerics, pipeline, sounding  # noqa: E402
from cs_sounding import sparse_recovery as sr  # noqa: E402
from tracer import (Span, Tracer, aggregate, namespace_snapshot, root_ns,  # noqa: E402
                    self_times_ns, tail_percentile)


def small_config():
    return config.config_from_dict({
        "dims": {"n_dft": 64, "n_t": 2, "n_r": 2},
        "recovery": {"kappa": 8, "i_max": 10},
        "sounding": {"seed": 5, "n_kappa": 48},
        "master_seed": 3,
    })


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span("root", -1, 1, 0, 100),
        Span("a", 0, 1, 10, 40),
        Span("a.inner", 1, 1, 15, 25),
        Span("b", 0, 1, 50, 70),
    ]
    assert self_times_ns(spans) == [50, 20, 10, 20]
    assert sum(self_times_ns(spans)) == root_ns(spans) == 100
    rows = aggregate(spans + [Span("b", 0, 1, 80, 85, error="NotPositiveDefinite", work=7)])
    assert rows["b"] == {"self_ns": 25, "calls": 2, "work": 7, "errors": 1}
    assert rows["root"]["self_ns"] == 45


@pytest.mark.parametrize("n, value, percentile, beyond", [
    (100, 90, 90.0, 10),
    (11, 1, 100 / 11, 10),
    (5, 1, 20.0, 4),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, value, percentile, beyond):
    samples = list(range(n, 0, -1))
    assert tail_percentile(samples) == (value, pytest.approx(percentile), beyond)


def test_tail_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_tracer_wraps_then_restores_every_object():
    before = namespace_snapshot(cs_sounding)
    original = numerics.solve_normal_equations
    with Tracer(cs_sounding):
        assert numerics.solve_normal_equations is not original
        assert sr.numerics.solve_normal_equations is numerics.solve_normal_equations
        assert config.bin_pdp is cs_sounding.channel.bin_pdp  # re-export shares one wrapper
        assert vars(sr.MeasurementOperator)["rmatvec"] is not before[
            ("MeasurementOperator", "rmatvec")]
    after = namespace_snapshot(cs_sounding)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_after_an_exception():
    before = namespace_snapshot(cs_sounding)
    with pytest.raises(ZeroDivisionError):
        with Tracer(cs_sounding):
            1 / 0
    after = namespace_snapshot(cs_sounding)
    assert all(after[k] is v for k, v in before.items())


def test_traced_trial_matches_untraced_and_self_times_add_up():
    cfg = small_config()
    pdp = cfg.resolve_pdp()
    plain = pipeline.run_experiment(cfg, pdp, 1)
    tracer = Tracer(cs_sounding)
    with tracer:
        tracer.trial = 1
        traced = pipeline.run_experiment(cfg, pdp, 1)
    assert traced.recovery.iterations == plain.recovery.iterations
    assert traced.recovery.mac_count == plain.recovery.mac_count
    np.testing.assert_array_equal(traced.recovery.support, plain.recovery.support)

    rows = aggregate(tracer.spans)
    assert [s.name for s in tracer.spans if s.parent < 0] == ["pipeline.run_experiment"]
    assert sum(r["self_ns"] for r in rows.values()) == root_ns(tracer.spans)
    assert {s.trial for s in tracer.spans} == {1}
    assert rows["sparse_recovery.rmatvec"]["calls"] == traced.recovery.iterations
    assert rows["sparse_recovery.from_kron_rows"]["work"] == 48 * 64 * 4 * 16
    assert rows["sounding.knuth_shuffle"]["work"] == 64 + 128  # tones, then estimates
    lstsq = rows["numerics.solve_normal_equations"]
    assert lstsq["work"] >= lstsq["calls"] >= traced.recovery.iterations


def test_raised_error_is_recorded_and_the_stack_unwinds():
    tracer = Tracer(cs_sounding)
    rank_one = np.ones((6, 3), dtype=np.complex128)
    with tracer:
        with pytest.raises(numerics.NotPositiveDefinite):
            numerics.solve_normal_equations(rank_one, np.ones(6))
        sounding.knuth_shuffle(10, 7)
    rows = aggregate(tracer.spans)
    assert rows["numerics.solve_normal_equations"] == {
        "self_ns": rows["numerics.solve_normal_equations"]["self_ns"],
        "calls": 1, "work": 3, "errors": 1}
    assert rows["numerics.cholesky"]["errors"] == 1
    assert tracer.spans[-1].name == "sounding.knuth_shuffle"
    assert tracer.spans[-1].parent == -1


def test_large_workload_config_is_valid():
    cfg, _ = config.load_config(str(BENCH / "configs" / "large_1024_8x4.yaml"))
    assert (cfg.dims.n_dft, cfg.dims.n_t, cfg.dims.n_r) == (1024, 8, 4)
    assert (cfg.sounding.n_kappa, cfg.recovery.kappa) == (1024, 140)


def test_launcher_prints_per_layer_result():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "model_4x2_omp",
         "--seed", "4", "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["sparse_recovery.iterations_mean"]["value"] == 32


def test_launcher_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "threshold_4x2", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "missing src/cs_sounding/__init__.py" in proc.stderr

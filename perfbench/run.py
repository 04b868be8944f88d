"""Benchmark of the cs_sounding pipeline: three workloads, end-to-end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/. Each workload runs in fresh worker processes with BLAS
pinned to one thread. `--trace 0` times trials with tracing off and prints
the end-to-end metrics; `--trace 1` runs the traced pass and prints the
per-layer metrics. Without --trace both are run, and without --workload all
three workloads are. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Metric definitions are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import tail_percentile  # noqa: E402

WORKLOADS = ("threshold_4x2", "model_4x2_omp", "large_1024_8x4")
REQUIRED = ("src/cs_sounding/__init__.py", "configs/threshold_4x2.yaml",
            "configs/model_4x2.yaml", "perfbench/configs/large_1024_8x4.yaml")

# Set before any worker starts, so numpy's BLAS comes up single-threaded.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_SAMPLES = 3        # fresh processes whose set-up time is measured; median reported
REF_CALIB_MS = 4.0       # calibration time that defines the reference host speed
DEADLINE_S = 175.0       # one workload at one trace setting must finish within this
MIN_SOLVED_FRAC = 0.9    # acceptance criterion 2 passes with 45 of 50 trials in tolerance

END_TO_END = {  # name -> unit
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
}

# Wrapped functions whose per-trial self time (and, where listed, call count) is reported.
SELF_MS = (
    "numerics.solve_normal_equations", "numerics.cholesky", "numerics.solve_lower",
    "numerics.solve_upper", "numerics.kron_row", "numerics.dft_row", "numerics.fft_columns",
    "sparse_recovery.from_kron_rows", "sparse_recovery.rmatvec", "sparse_recovery.columns",
    "sparse_recovery.support_select", "sparse_recovery.cosamp", "sparse_recovery.omp",
    "channel.generate_channel", "channel.threshold_taps", "sounding.allocate_ltf",
    "sounding.knuth_shuffle", "sounding.punctured_sound_and_estimate",
    "feedback.quantize_measurements", "pipeline.build_measurement_model",
    "pipeline.recover_channel", "pipeline.run_experiment",
)
CALLS = ("numerics.solve_normal_equations", "numerics.kron_row",
         "sparse_recovery.rmatvec", "sparse_recovery.columns")

# Groups of wrapped functions whose self times make up one layer's share of a trial.
LAYER_GROUPS = {
    "least_squares": ("numerics.solve_normal_equations", "numerics.cholesky",
                      "numerics.solve_lower", "numerics.solve_upper"),
    "proxy": ("sparse_recovery.rmatvec",),
    "operator_build": ("sparse_recovery.from_kron_rows", "numerics.kron_row",
                       "numerics.dft_row"),
    "lfsr_shuffle": ("sounding.knuth_shuffle",),
}


class BenchError(RuntimeError):
    """A worker failed or the checkout cannot be benchmarked."""


def run_worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    env = {**os.environ, **THREAD_ENV}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {mode} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalized_ms(trials: list[dict], calib: list[float]) -> list[float]:
    """Trial wall times scaled to the reference host speed.

    Trial i is scaled by REF_CALIB_MS over the mean of the calibration runs
    just before and just after it.
    """
    return [t["ms"] * REF_CALIB_MS / ((calib[i] + calib[i + 1]) / 2)
            for i, t in enumerate(trials)]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Set-up samples plus one timed worker; the six end-to-end metrics."""
    setups = [run_worker(workload, seed, "setup", 0, deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    timed = run_worker(workload, seed, "timed", seconds, deadline)
    setups.append(timed)
    trials = timed["trials"]
    norm = normalized_ms(trials, timed["calib_ms"])
    wall = [t["ms"] for t in trials]
    n_solved = sum(t["solved"] for t in trials)
    tail, pct, beyond = tail_percentile(norm)
    wall_tail = tail_percentile(wall)[0]
    setup_norm = [s["setup_s"] * REF_CALIB_MS / s["setup_calib_ms"] for s in setups]
    fingerprints = {json.dumps(s["fingerprint0"]) for s in setups}
    checks = {
        "solved_frac_at_least_0.9": n_solved >= MIN_SOLVED_FRAC * len(trials),
        "repeat_exact_across_processes": len(fingerprints) == 1 and "null" not in fingerprints,
    }
    values = {
        "trials_per_s": n_solved / (sum(norm) / 1e3),
        "trial_ms_p50": statistics.median(norm),
        "trial_ms_tail": tail,
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": timed["peak_rss_mb"],
        "solved_frac": n_solved / len(trials),
    }
    detail = {
        "tail_percentile": pct, "tail_samples": len(norm), "tail_beyond": beyond,
        "wall_trials_per_s": n_solved / (sum(wall) / 1e3),
        "wall_trial_ms_p50": statistics.median(wall),
        "wall_trial_ms_tail": wall_tail,
        "wall_setup_s": statistics.median(s["setup_s"] for s in setups),
        "calib_ms_p50": statistics.median(timed["calib_ms"]),
        "timed_phase_s": timed["elapsed_s"],
        "unsolved_trials": [t["trial"] for t in trials if not t["solved"]],
        "errors": [t["error"] for t in trials if t["error"]],
    }
    failed = sum(t["error"] is not None for t in trials)
    return {"values": values, "units": END_TO_END, "checks": checks, "detail": detail,
            "attempted": len(trials), "failed": failed, "env": timed["env"]}


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """One traced worker; per-layer self times, counts and the trace checks."""
    out = run_worker(workload, seed, "traced", seconds, deadline)
    plain, traced, layers = out["plain"], out["traced"], out["layers"]
    n = len(traced)
    totals: dict[str, dict] = {}
    for layer in layers:
        for name, row in layer["rows"].items():
            acc = totals.setdefault(name, dict.fromkeys(row, 0))
            for key, val in row.items():
                acc[key] += val
    zero = {"self_ns": 0, "calls": 0, "work": 0, "errors": 0}

    def total(name):
        return totals.get(name, zero)

    values = {f"{name}.self_ms": total(name)["self_ns"] / n / 1e6 for name in SELF_MS}
    values.update({f"{name}.calls": total(name)["calls"] / n for name in CALLS})
    lstsq = total("numerics.solve_normal_equations")
    ops = total("sparse_recovery.from_kron_rows")
    ok = [t for t in traced if t["fingerprint"] is not None]
    loads = out["load_config_calls"]["config.load_config"]
    self_sum = sum(row["self_ns"] for row in totals.values()) / n / 1e6
    values.update({
        "numerics.solve_normal_equations.cols_mean": lstsq["work"] / max(lstsq["calls"], 1),
        "numerics.solve_normal_equations.not_pd": lstsq["errors"] / n,
        "sparse_recovery.operator_mb": ops["work"] / max(ops["calls"], 1) / 1e6,
        "sparse_recovery.iterations_mean": statistics.fmean(t["fingerprint"][0] for t in ok),
        "sparse_recovery.mac_count_mean": statistics.fmean(t["fingerprint"][1] for t in ok),
        "sparse_recovery.mac_ratio": (sum(t["fingerprint"][1] for t in ok)
                                      / sum(t["mac_model"] for t in ok)),
        "sparse_recovery.converged_frac": sum(t["converged"] for t in ok) / n,
        "sparse_recovery.lstsq_ok_ratio": ((lstsq["calls"] - lstsq["errors"])
                                           / max(lstsq["calls"], 1)),
        "sounding.knuth_shuffle.items": total("sounding.knuth_shuffle")["work"] / n,
        "config.load_config.self_ms": loads["self_ns"] / loads["calls"] / 1e6,
        "trace.overhead_ms_p50": (statistics.median(t["ms"] for t in traced)
                                  - statistics.median(t["ms"] for t in plain)),
        "trace.trial_ms_mean": statistics.fmean(t["ms"] for t in traced),
        "trace.self_ms_sum": self_sum,
    })
    roots_match = all(
        sum(row["self_ns"] for row in layer["rows"].values()) == layer["root_ns"]
        and 0.99 * t["ms"] <= layer["root_ns"] / 1e6 <= t["ms"]
        for layer, t in zip(layers, traced))
    mismatched = [t["trial"] for p, t in zip(plain, traced)
                  if p["fingerprint"] is None or p["fingerprint"] != t["fingerprint"]]
    checks = {
        "solved_frac_at_least_0.9": sum(t["solved"] for t in traced) >= MIN_SOLVED_FRAC * n,
        "repeat_exact_traced_vs_untraced": not mismatched,
        "wrappers_restored": out["restored"],
        "self_times_sum_to_trial": roots_match,
    }
    detail = {
        "layer_shares": {group: sum(total(name)["self_ns"] for name in names) / n / 1e6 / self_sum
                         for group, names in LAYER_GROUPS.items()},
        "per_function": {name: {"self_ms": row["self_ns"] / n / 1e6, "calls": row["calls"] / n}
                         for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"])},
        "mismatched_trials": mismatched,
        "unsolved_trials": [t["trial"] for t in traced if not t["solved"]],
    }
    units = {name: unit_of(name) for name in values}
    failed = sum(1 for t in traced if t["error"] is not None or t["trial"] in mismatched)
    return {"values": values, "units": units, "checks": checks, "detail": detail,
            "attempted": n, "failed": failed, "env": out["env"]}


def unit_of(name: str) -> str:
    if name.endswith(("_ms", "_ms_p50", "_ms_mean", "_ms_sum")):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def report(workload: str, trace: int, res: dict) -> None:
    print(f"== {workload}  trace={trace}  attempted={res['attempted']}  failed={res['failed']}")
    for name, val in res["values"].items():
        print(f"  {name:48s} {val:14.4f} {res['units'][name]}")
    for name, ok in res["checks"].items():
        print(f"  check {name:42s} {'ok' if ok else 'FAILED'}")
    if trace == 0:
        d = res["detail"]
        print(f"  tail is p{d['tail_percentile']:.1f} of {d['tail_samples']} trials, "
              f"{d['tail_beyond']} beyond; wall p50 {d['wall_trial_ms_p50']:.2f} ms, "
              f"calibration p50 {d['calib_ms_p50']:.3f} ms")
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in res["detail"]["layer_shares"].items())
        print(f"  layer shares of traced trial time: {shares}")
    print("  " + json.dumps({"workload": workload, "trace": trace, "detail": res["detail"]}))


def check_checkout() -> None:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not a cs_sounding checkout ({ROOT}): missing {', '.join(missing)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1, help="substituted for master_seed (>= 0)")
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    ap.add_argument("--out", help="also write every result and its detail to this JSON file")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)

    results = {}
    try:
        check_checkout()
        for workload in workloads:
            for trace in traces:
                deadline = time.monotonic() + DEADLINE_S
                measure = end_to_end if trace == 0 else per_layer
                res = measure(workload, args.seed, args.seconds, deadline)
                report(workload, trace, res)
                results[(workload, trace)] = res
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = next(iter(results.values()))["env"]
    print("env: " + json.dumps(env))
    single = len(results) == 1
    metrics = {}
    for (workload, _), res in results.items():
        for name, val in res["values"].items():
            key = name if single else f"{workload}.{name}"
            metrics[key] = {"value": val, "unit": res["units"][name]}
    summary = {
        "correct": all(all(r["checks"].values()) for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    if args.out:
        record = {"seed": args.seed, "seconds": args.seconds, "env": env,
                  "results": {f"{w}/trace{t}": r for (w, t), r in results.items()}}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up one workload, then run a timed or traced phase.

run.py starts this script in a fresh interpreter with BLAS pinned to one
thread, from the root of a source checkout, and reads the JSON object it
prints as its last line:

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

MODE is `setup` (set-up only), `timed` (trials back to back, tracing off)
or `traced` (each trial run untraced, then again under the tracer).
"""

import time

SETUP_START = time.perf_counter()  # set-up is timed from before numpy and cs_sounding load

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import cs_sounding  # noqa: E402
from cs_sounding import config, pipeline  # noqa: E402
from cs_sounding import sparse_recovery as sr  # noqa: E402
from tracer import Tracer, aggregate, namespace_snapshot, root_ns  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (config file relative to the checkout root, recovery algorithm override)
WORKLOADS = {
    "threshold_4x2": ("configs/threshold_4x2.yaml", None),
    "model_4x2_omp": ("configs/model_4x2.yaml", "omp"),
    "large_1024_8x4": ("perfbench/configs/large_1024_8x4.yaml", None),
}

MIN_TRIALS = 16  # ten samples beyond the tail percentile, and a steadier one on large_1024_8x4
MIN_TRACED = 3   # the traced pass reports means and medians only
CALIB_SETUP_REPS = 5
QUANT_SLACK = 16.0


class Calibration:
    """Host-speed probe that never touches cs_sounding.

    The host's speed drifts by tens of percent over seconds to minutes on a
    shared machine, so trial times are divided by this probe's time. It is
    the geometric mean of a pure-Python loop (interpreter speed) and three
    adjoint products over a 5 MB complex matrix (BLAS and memory speed),
    the two kinds of work the solvers do.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((160, 2048)) + 1j * rng.standard_normal((160, 2048))
        self.vector = rng.standard_normal(160) + 0j

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += (i * 7) % 13
        t1 = time.perf_counter()
        for _ in range(3):
            self.matrix.conj().T @ self.vector
        t2 = time.perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1)) * 1e3


def load_workload(name: str, seed: int):
    """The workload's config with the benchmark seed as master_seed, and its PDP."""
    path, algorithm = WORKLOADS[name]
    cfg, pdp = config.load_config(str(ROOT / path))
    if algorithm is not None:
        cfg = dataclasses.replace(
            cfg, recovery=dataclasses.replace(cfg.recovery, algorithm=algorithm))
    cfg = dataclasses.replace(cfg, master_seed=seed)
    config.validate_config(cfg)
    return cfg, pdp


def solved(res, quant_bits) -> bool:
    """The acceptance suite's tolerance for one trial.

    Unthresholded: criterion 2, mse < 1e-3. Thresholded: criterion 3,
    floor*(1-1e-9) <= mse <= 2*floor (mse <= 1e-12 when nothing was
    discarded), widened by QUANT_SLACK * 4**-bits when the feedback is
    quantized to `bits` per component. Criterion 3 assumes exact feedback;
    10-bit feedback alone gives a relative error of up to 3.4 * 4**-10
    (400 trials), which exceeds 2*floor whenever the floor is tiny.
    """
    floor = res.threshold_floor
    if floor is None:
        return res.mse < 1e-3
    slack = 0.0 if quant_bits is None else QUANT_SLACK * 4.0 ** -quant_bits
    return floor * (1 - 1e-9) <= res.mse <= max(2.0 * floor, 1e-12) + slack


def run_trial(cfg, pdp, trial: int) -> dict:
    """One timed pipeline.run_experiment call and what the checks need from it."""
    t0 = time.perf_counter_ns()
    try:
        res = pipeline.run_experiment(cfg, pdp, trial)
    except (sr.DegenerateSupport, sr.InsufficientMeasurements) as exc:
        ms = (time.perf_counter_ns() - t0) / 1e6
        return {"trial": trial, "ms": ms, "solved": False, "error": str(exc),
                "fingerprint": None}
    ms = (time.perf_counter_ns() - t0) / 1e6
    rec = res.recovery
    return {
        "trial": trial, "ms": ms, "solved": solved(res, cfg.feedback.quant_bits), "error": None,
        "fingerprint": [rec.iterations, rec.mac_count, int(rec.support.size)],
        "converged": rec.converged,
        "mac_model": res.mac_model_per_iteration * rec.iterations,
    }


def timed_phase(cfg, pdp, seconds: float, calibrate: Calibration) -> dict:
    """Trials 1, 2, ... back to back for `seconds`, a calibration after each."""
    trials, calib = [], [calibrate()]
    start = time.perf_counter()
    trial = 1
    while time.perf_counter() - start < seconds or len(trials) < MIN_TRIALS:
        trials.append(run_trial(cfg, pdp, trial))
        calib.append(calibrate())
        trial += 1
    return {"trials": trials, "calib_ms": calib,
            "elapsed_s": time.perf_counter() - start}


def traced_phase(workload: str, seed: int, cfg, pdp, seconds: float) -> dict:
    """Each trial untraced, then again under the tracer, for `seconds`.

    Interleaving the two runs of a trial puts both under the same host
    speed, so their difference is the tracing overhead.
    """
    tracer = Tracer(cs_sounding)
    before = namespace_snapshot(cs_sounding)
    with tracer:
        for _ in range(3):
            load_workload(workload, seed)
    loads = aggregate(tracer.spans)
    tracer.clear()

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    trial = 1
    while time.perf_counter() - start < seconds or len(traced) < MIN_TRACED:
        plain.append(run_trial(cfg, pdp, trial))
        with tracer:
            tracer.trial = trial
            traced.append(run_trial(cfg, pdp, trial))
        layers.append({"rows": aggregate(tracer.spans), "root_ns": root_ns(tracer.spans)})
        tracer.clear()
        trial += 1
    after = namespace_snapshot(cs_sounding)
    restored = before.keys() == after.keys() and all(after[k] is v for k, v in before.items())
    return {"plain": plain, "traced": traced, "layers": layers,
            "load_config_calls": loads, "restored": restored}


def env_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"worker: {', '.join(unpinned)} must be 1; start it through run.py",
              file=sys.stderr)
        return 2
    if not Path(cs_sounding.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: cs_sounding imported from {cs_sounding.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    cfg, pdp = load_workload(args.workload, args.seed)
    warm = run_trial(cfg, pdp, 0)
    setup_s = time.perf_counter() - SETUP_START
    calibrate = Calibration()
    out = {
        "setup_s": setup_s,
        "setup_calib_ms": statistics.median([calibrate() for _ in range(CALIB_SETUP_REPS)]),
        "fingerprint0": warm["fingerprint"],
        "env": env_info(),
    }
    if args.mode == "timed":
        out.update(timed_phase(cfg, pdp, args.seconds, calibrate))
    elif args.mode == "traced":
        out.update(traced_phase(args.workload, args.seed, cfg, pdp, args.seconds))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

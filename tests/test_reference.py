"""Regression oracle: the shipped configs against a committed reference.

`reference_trials.json` holds, for the first 20 trials of five cases
(threshold_4x2 with CoSaMP, model_4x2 with CoSaMP, model_4x2 with OMP,
model_4x2 with OMP on noisy, boosted, 8-bit quantized sounding, and
model_4x2 with CoSaMP at n_kappa 120, where most trials run to the
iteration cap) and the first 5 of a sixth (model_4x2 scaled to an 8x4
system with a 1024-point DFT, CoSaMP with supports up to about 420
columns), the exact solver outcome and the error figures. Numerical
refactors must reproduce it:

- exactly: iterations, MAC count, converged flag, stop reason, support
  size, kappa_used, kappa_realized and the significant support (entries
  of x_hat above 1e-6 of its peak; atoms below that are rounding noise
  whose order may change under any change of summation order);
- to a relative tolerance of 1e-9 (plus 1e-20 absolute): mse and
  threshold_floor.

Regenerate the file (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_reference.py --write

It reruns every case but rewrites only the cases missing from the file
and, elsewhere, the fields missing from a record or failing the
comparison above; every other field keeps its committed value, so
rounding-level differences (noiseless mse near 1e-29) cause no churn.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "reference_trials.json"
N_TRIALS = 20
SIGNIFICANT = 1e-6
REL_TOL = 1e-9
ABS_TOL = 1e-20
EXACT = ("iterations", "mac_count", "converged", "stop_reason", "support_size",
         "kappa_used", "kappa_realized", "significant_support")
CLOSE = ("mse", "threshold_floor")

# case name -> (config file, {section: {field: value}} overrides)
CASES = {
    "threshold_4x2": ("configs/threshold_4x2.yaml", {}),
    "model_4x2": ("configs/model_4x2.yaml", {}),
    "model_4x2_omp": ("configs/model_4x2.yaml", {"recovery": {"algorithm": "omp"}}),
    # Below the recovery threshold: most trials end at the iteration cap,
    # and every iteration's merged set exceeds the rows and takes the retry.
    "model_4x2_nk120": ("configs/model_4x2.yaml", {"sounding": {"n_kappa": 120}}),
    # The only case that draws noise: pins the noise stream and its order.
    "model_4x2_noisy_omp": ("configs/model_4x2.yaml", {
        "recovery": {"algorithm": "omp"},
        "sounding": {"snr_db": 25, "power_mode": "boosted"},
        "feedback": {"quant_bits": 8},
    }),
    # Converges in a few iterations on least squares of |T| up to ~420.
    "large_1024_8x4": ("configs/model_4x2.yaml", {
        "dims": {"n_dft": 1024, "n_t": 8, "n_r": 4},
        "recovery": {"kappa": 140},
        "sounding": {"n_kappa": 1024},
        "feedback": {"n_tones": 996},
    }),
}
TRIALS = {"large_1024_8x4": 5}  # cases run fewer than N_TRIALS trials


def run_case(name: str) -> list[dict]:
    from cs_sounding import pipeline
    from cs_sounding.config import load_config, validate_config

    path, overrides = CASES[name]
    cfg, pdp = load_config(str(ROOT / path))
    cfg = dataclasses.replace(cfg, **{
        section: dataclasses.replace(getattr(cfg, section), **fields)
        for section, fields in overrides.items()})
    validate_config(cfg)
    records = []
    for trial in range(TRIALS.get(name, N_TRIALS)):
        res = pipeline.run_experiment(cfg, pdp, trial)
        rec = res.recovery
        mags = np.abs(rec.x_hat)
        peak = float(mags.max()) if mags.size else 0.0
        significant = np.flatnonzero(mags > SIGNIFICANT * peak) if peak > 0 else []
        records.append({
            "trial": trial,
            "iterations": rec.iterations,
            "mac_count": rec.mac_count,
            "converged": bool(rec.converged),
            "stop_reason": rec.stop_reason,
            "support_size": int(rec.support.size),
            "kappa_used": res.kappa_used,
            "kappa_realized": res.kappa_realized,
            "significant_support": [int(i) for i in significant],
            "mse": res.mse,
            "threshold_floor": res.threshold_floor,
        })
    return records


def field_matches(key: str, want, got) -> bool:
    if key in EXACT:
        return want == got
    if want is None or got is None:
        return want is got
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


def mismatches(expected: dict, actual: dict) -> list[str]:
    return [f"{key}: expected {expected[key]!r}, got {actual[key]!r}"
            for key in EXACT + CLOSE
            if not field_matches(key, expected[key], actual[key])]


def case_problems(expected: list[dict], actual: list[dict]) -> list[str]:
    """Every mismatch between the records of two runs of one case."""
    if len(expected) != len(actual):
        return [f"{len(expected)} trials recorded, {len(actual)} run"]
    return [f"trial {e['trial']}: {msg}"
            for e, a in zip(expected, actual) for msg in mismatches(e, a)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_reference(case):
    expected = json.loads(FIXTURE.read_text())[case]
    actual = run_case(case)
    assert len(actual) == len(expected) == TRIALS.get(case, N_TRIALS)
    problems = case_problems(expected, actual)
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_reference.py --write")
    committed = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    data = {}
    for name in sorted(CASES):
        actual = run_case(name)
        expected = committed.get(name, [])
        if len(expected) != len(actual):
            data[name] = actual
            print(f"rewrote case {name}")
            continue
        # keep every committed field that still matches, so the file
        # changes only where the results did or a field was added
        data[name] = [{**a, **{key: e[key] for key in EXACT + CLOSE
                               if key in e and field_matches(key, e[key], a[key])}}
                      for e, a in zip(expected, actual)]
        moved = sorted({key for e, a in zip(expected, actual) for key in EXACT + CLOSE
                        if key not in e or not field_matches(key, e[key], a[key])})
        if moved:
            print(f"rewrote {', '.join(moved)} in case {name}")
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {FIXTURE}")

"""Command-line front end.

Four commands, all driven by a YAML/JSON config file: `simulate` (one
experiment, writes result.json and channel.csv), `sweep` (measurement
count sweep, writes sweep.csv), `overhead` (feedback-bit and airtime
comparison, writes overhead.json), and `selfcheck` (fast invariant suite).
Overrides (`--seed`, `--out`, `--algorithm`, and each `--nkappa-list`
value for `sounding.n_kappa`) replace the file's values before validation;
a relative `pdp` path is taken from the config file's directory. Outputs
are byte-deterministic for a given config and BLAS thread count. Exit
codes: 0 ok, 2 config error (an unwritable output path included), 3 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import feedback as fb
from . import numerics
from . import pipeline
from . import sounding as snd
from .config import ConfigError, read_config, validate_config
from .sparse_recovery import (
    ALGORITHMS, DegenerateSupport, InsufficientMeasurements, MeasurementOperator,
    RecoveryConfig, omp,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

CHANNEL_CSV_HEADER = "domain,index,re_true,im_true,re_rec,im_rec"
SWEEP_CSV_HEADER = "n_kappa,trial,mse,iterations,mac_count,converged,stop_reason,error"


def _fmt(x) -> str:
    """Deterministic cell formatting; floats carry 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_text(path: str, text: str) -> None:
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"output: cannot write {path!r}: {exc}") from exc


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output=args.out)
    if args.algorithm is not None:
        cfg = replace(cfg, recovery=replace(cfg.recovery, algorithm=args.algorithm))
    return cfg


def _load(args):
    """The overridden config, validated once, and the profile it names."""
    cfg = _apply_overrides(read_config(args.config), args)
    return cfg, validate_config(cfg, os.path.dirname(os.path.abspath(args.config)))


def cmd_simulate(args) -> int:
    cfg, pdp = _load(args)
    outdir = cfg.output
    try:
        res = pipeline.run_experiment(cfg, pdp, trial=0)
    except (DegenerateSupport, InsufficientMeasurements) as exc:
        _write_json(os.path.join(outdir, "result.json"), {
            "status": f"solver_error: {exc}",
            "config": asdict(cfg),
        })
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    result = {
        "status": "ok",
        "config": asdict(cfg),
        "seeds": asdict(res.seeds),
        "mse": res.mse,
        "mse_freq": res.mse_freq,
        "kappa_realized": res.kappa_realized,
        "kappa_used": res.kappa_used,
        "threshold_floor": res.threshold_floor,
        "recovery": {
            "iterations": res.recovery.iterations,
            "converged": res.recovery.converged,
            "stop_reason": res.recovery.stop_reason,
            "mac_count": res.recovery.mac_count,
            "support_size": int(res.recovery.support.size),
            "residual_history": [float(r) for r in res.recovery.residual_history],
        },
        "mac_model_per_iteration": res.mac_model_per_iteration,
        "overhead": {
            "conventional": asdict(res.overhead[0]),
            "proposed": asdict(res.overhead[1]),
        },
    }
    _write_json(os.path.join(outdir, "result.json"), result)

    lines = [CHANNEL_CSV_HEADER]
    for domain, true_mat, rec_mat in (
        ("delay2d", res.true_channel.h_2d, res.recovered.h_2d),
        ("freq", res.true_channel.h_freq, res.recovered.h_freq),
    ):
        t = true_mat.ravel()
        r = rec_mat.ravel()
        for i in range(t.size):
            lines.append(",".join([
                domain, str(i),
                _fmt(float(t[i].real)), _fmt(float(t[i].imag)),
                _fmt(float(r[i].real)), _fmt(float(r[i].imag)),
            ]))
    _write_text(os.path.join(outdir, "channel.csv"), "\n".join(lines) + "\n")
    print(f"simulate: mse={res.mse:.6e} iterations={res.recovery.iterations} "
          f"converged={res.recovery.converged} -> {outdir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        nk_list = [int(tok) for tok in args.nkappa_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--nkappa-list: {exc}") from exc
    if not nk_list:
        raise ConfigError("--nkappa-list: must give at least one value")
    cfg = _apply_overrides(read_config(args.config), args)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    for n_kappa in nk_list:  # each value overrides sounding.n_kappa before validation
        try:
            pdp = validate_config(cfg.with_n_kappa(n_kappa), base_dir)
        except ConfigError as exc:
            if "sounding.n_kappa" not in str(exc):  # not the value's fault
                raise
            raise ConfigError(f"--nkappa-list: value {n_kappa}: {exc}") from exc

    rows = pipeline.sweep_nkappa(cfg, nk_list, cfg.trials, pdp)
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(",".join([
            _fmt(row["n_kappa"]), _fmt(row["trial"]), _fmt(float(row["mse"])),
            _fmt(row["iterations"]), _fmt(row["mac_count"]), _fmt(row["converged"]),
            row["stop_reason"], '"%s"' % row["error"].replace('"', '""') if "error" in row else "",
        ]))
    path = os.path.join(cfg.output, "sweep.csv")
    _write_text(path, "\n".join(lines) + "\n")
    print(f"sweep: {len(rows)} rows -> {path}")
    return EXIT_OK


def cmd_overhead(args) -> int:
    cfg, _ = _load(args)
    d = cfg.dims
    conv, prop = pipeline.overhead_report(
        d.n_t, d.n_r, cfg.feedback.mode, cfg.sounding.n_kappa, d.n_dft,
        cfg.feedback.n_tones, cfg.feedback.ltf_duration_us, cfg.feedback.quant_bits,
    )
    payload = {
        "conventional": asdict(conv),
        "proposed": asdict(prop),
        "angle_bits_per_tone": {
            "n_t": d.n_t,
            "n_r": d.n_r,
            "SU": fb.bits_per_tone(d.n_t, d.n_r, "SU"),
            "MU": fb.bits_per_tone(d.n_t, d.n_r, "MU"),
        },
    }
    path = os.path.join(cfg.output, "overhead.json")
    _write_json(path, payload)
    print(f"overhead: conventional {conv.total_bits} bits / {conv.airtime_us} us, "
          f"proposed {prop.total_bits} bits / {prop.airtime_us} us -> {path}")
    return EXIT_OK


def _selfcheck_checks():
    def check_p_orthogonality():
        for n in (2, 4):
            p = snd.p_matrix(n).entries
            if not np.array_equal(p @ p.T, n * np.eye(n, dtype=np.int64)):
                return False
        return True

    def check_kron_consistency():
        rng = np.random.default_rng(2024)
        h = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        return pipeline.kron_consistency_check(h) < 1e-10

    def check_givens_roundtrip():
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        v = np.linalg.qr(a)[0]
        rec = fb.givens_reconstruct(fb.givens_decompose(v))
        phases = np.exp(1j * np.angle(np.sum(v.conj() * rec, axis=0)))
        return float(np.max(np.abs(rec - v * phases))) < 1e-9

    def check_angle_bits_table():
        expected = {
            ("SU", 2, 2): 10, ("SU", 4, 2): 50, ("SU", 8, 2): 130,
            ("SU", 16, 2): 290, ("SU", 16, 4): 540,
            ("MU", 2, 2): 16, ("MU", 4, 2): 80, ("MU", 8, 2): 208,
            ("MU", 16, 2): 464, ("MU", 16, 4): 864,
        }
        return all(fb.bits_per_tone(nt, nc, mode) == bits
                   for (mode, nt, nc), bits in expected.items())

    def check_allocation_partition():
        alloc = snd.allocate_ltf(52, 4, seed=7)
        sets = [set(alloc.tones_for(a).tolist()) for a in range(4)]
        union = set().union(*sets)
        return (all(len(s) == 13 for s in sets) and len(union) == 52
                and sum(len(s) for s in sets) == 52)

    def check_operator_columns():
        rows = np.random.default_rng(11).choice(32 * 4, 40, replace=False)
        op = MeasurementOperator.from_kron_rows(32, 4, rows)
        dense = np.vstack([numerics.kron_row((32, 4), int(r)) for r in rows])
        x = np.exp(1j * np.arange(128.0))
        return (np.max(np.abs(op.columns(np.arange(128)) - dense)) < 1e-12
                and np.max(np.abs(op.matvec(x) - dense @ x)) < 1e-12)

    def check_operator_gram():
        rng = np.random.default_rng(12)
        op = MeasurementOperator.from_kron_rows(32, 4, rng.choice(32 * 4, 40, replace=False))
        idx = rng.choice(32 * 4, 60, replace=False)
        cols = op.columns(idx)
        return np.max(np.abs(op.gram(idx) - cols.conj().T @ cols)) < 1e-12

    def check_gram_solve():
        # 140 columns: above numerics.GRAM_FACTOR_REUSE_ABOVE, so the solve
        # reuses the Cholesky factor.
        rng = np.random.default_rng(13)
        op = MeasurementOperator(64, 4, rng.choice(64 * 4, 240, replace=False))
        idx = np.sort(rng.choice(64 * 4, 140, replace=False))
        y = rng.standard_normal(240) + 1j * rng.standard_normal(240)
        b = numerics.solve_gram(op.gram(idx), op.rmatvec(y)[idx])
        ref = np.linalg.lstsq(op.columns(idx), y, rcond=None)[0]
        return np.linalg.norm(b - ref) <= 1e-10 * np.linalg.norm(ref)

    def check_omp_recovery():
        # Batch-OMP's factor update and in-place proxy, end to end
        rng = np.random.default_rng(14)
        op = MeasurementOperator(32, 4, rng.choice(32 * 4, 40, replace=False))
        x = np.zeros(32 * 4, dtype=np.complex128)
        planted = np.sort(rng.choice(32 * 4, 5, replace=False))
        x[planted] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        res = omp(op, op.matvec(x), RecoveryConfig(kappa=5))
        return (np.array_equal(res.support, planted)
                and float(np.max(np.abs(res.x_hat - x))) < 1e-10)

    def check_unitary_transform():
        f = numerics.dft_matrix(16)
        return float(np.max(np.abs(f.conj().T @ f - np.eye(16)))) < 1e-12

    return [
        ("p_matrix_orthogonality", check_p_orthogonality),
        ("kron_path_consistency", check_kron_consistency),
        ("givens_roundtrip", check_givens_roundtrip),
        ("angle_bits_table", check_angle_bits_table),
        ("allocation_partition", check_allocation_partition),
        ("dft_unitarity", check_unitary_transform),
        ("operator_columns", check_operator_columns),
        ("operator_gram", check_operator_gram),
        ("gram_solve", check_gram_solve),
        ("omp_recovery", check_omp_recovery),
    ]


def cmd_selfcheck(args) -> int:
    failures = 0
    for name, check in _selfcheck_checks():
        try:
            ok = check()
        except Exception as exc:  # a crashed check is a failed check
            ok = False
            print(f"{name}: FAIL ({exc})")
            failures += 1
            continue
        print(f"{name}: {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cs-sounding",
        description="Compressed-sensing WLAN channel sounding simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML/JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--algorithm", choices=ALGORITHMS, default=None,
                       help="override recovery algorithm")

    p_sim = sub.add_parser("simulate", help="run one experiment")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep the measurement count")
    add_common(p_sweep)
    p_sweep.add_argument("--nkappa-list", required=True,
                         help="comma-separated measurement counts, e.g. 120,160,200")
    p_sweep.set_defaults(func=cmd_sweep)

    p_over = sub.add_parser("overhead", help="feedback-bit and airtime comparison")
    add_common(p_over)
    p_over.set_defaults(func=cmd_overhead)

    p_check = sub.add_parser("selfcheck", help="run the fast invariant suite")
    p_check.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

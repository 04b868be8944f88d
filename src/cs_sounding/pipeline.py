"""End-to-end experiment orchestration.

Builds the row-sampled Kronecker measurement model from an LTF allocation
and the punctured channel estimates, runs greedy recovery, reconstructs
the full-tone channel, and reports error plus the feedback/airtime ledger
against the conventional scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import feedback as fb
from . import numerics
from . import sounding as snd
from . import sparse_recovery as sr
from .config import ExperimentConfig


class TooManyMeasurementsRequested(ValueError):
    """n_kappa exceeds the number of estimates the sounding can produce."""


@dataclass(frozen=True)
class MeasurementModel:
    """Selected rows of the implicit kron(F_n_dft, F_n_s) system plus the
    measured (possibly noisy/quantized) values at those rows."""

    n_dft: int
    n_t: int
    n_r: int
    selected_rows: np.ndarray
    y: np.ndarray

    @property
    def n_s(self) -> int:
        return self.n_t * self.n_r


@dataclass(frozen=True)
class TrialSeeds:
    channel: int
    noise: int
    subsample: int
    allocation: int


@dataclass
class ExperimentResult:
    mse: float
    mse_freq: float
    recovered: chan.ChannelRealization
    recovery: sr.SparseRecoveryResult
    overhead: tuple[fb.FeedbackReport, fb.FeedbackReport]
    true_channel: chan.ChannelRealization
    kappa_realized: int
    kappa_used: int
    threshold_floor: float | None
    mac_model_per_iteration: int
    seeds: TrialSeeds


def kron_consistency_check(h: np.ndarray) -> float:
    """Max deviation between the two transform paths.

    Path one applies the two-sided transform; path two assembles each
    Kronecker row independently and applies it to the row-major
    vectorization. Both must agree to near machine precision.
    """
    h = np.asarray(h, dtype=np.complex128)
    n_rows, n_cols = h.shape
    two_sided = np.fft.fft2(h, norm="ortho").ravel()
    vec = h.ravel()
    worst = 0.0
    for row in range(n_rows * n_cols):
        via_row = numerics.kron_row((n_rows, n_cols), row) @ vec
        worst = max(worst, abs(via_row - two_sided[row]))
    return worst


def derive_trial_seeds(master_seed: int, allocation_seed: int, trial: int) -> TrialSeeds:
    """Per-trial seeds, a pure function of (master_seed, trial).

    Trial 0 keeps the configured allocation seed (the value the protocol
    would carry in the announcement frame); later trials derive a fresh
    nonzero 16-bit one.
    """
    words = np.random.SeedSequence([int(master_seed), int(trial)]).generate_state(4)
    return TrialSeeds(
        channel=int(words[0]),
        noise=int(words[1]),
        subsample=int(words[2]) % 0xFFFF + 1,
        allocation=int(allocation_seed) if trial == 0 else int(words[3]) % 0xFFFF + 1,
    )


def build_measurement_model(h: chan.ChannelRealization, alloc: snd.LtfAllocation,
                            n_kappa: int, snr_db: float | None = None,
                            quant_bits: int | None = None, *,
                            power_mode: str = "uniform",
                            noise_seed: int = 0,
                            subsample_seed: int = 1) -> MeasurementModel:
    """Sound, estimate, subsample to n_kappa rows, and quantize.

    Each punctured estimate (tone k, tx, rx) becomes Kronecker row
    k * n_s + (rx * n_t + tx). A second seeded shuffle picks which n_kappa
    of the available estimates are fed back.
    """
    estimates = snd.punctured_sound_and_estimate(
        h, alloc, snd.LtfSequence.all_ones(h.n_dft), snr_db,
        power_mode=power_mode, seed=noise_seed,
    )
    if n_kappa > len(estimates):
        raise TooManyMeasurementsRequested(
            f"requested {n_kappa} measurements, sounding produced {len(estimates)}"
        )
    # The estimates come in tone-then-rx order, so their rows rise strictly
    # with the index: sorting the picked indices sorts the rows.
    est = estimates[np.sort(snd.knuth_shuffle(len(estimates), subsample_seed)[:n_kappa])]
    rows = est.tone * h.n_s + est.rx * h.n_t + est.tx
    values = est.value
    if quant_bits is not None:
        values = fb.quantize_measurements(values, quant_bits).values
    return MeasurementModel(
        n_dft=h.n_dft, n_t=h.n_t, n_r=h.n_r,
        selected_rows=rows, y=values,
    )


def recover_channel(model: MeasurementModel, cfg: sr.RecoveryConfig,
                    algorithm: str = "cosamp"
                    ) -> tuple[chan.ChannelRealization, sr.SparseRecoveryResult]:
    """Run greedy recovery on the model and rebuild all three channel views."""
    if algorithm not in sr.ALGORITHMS:
        raise ValueError(f"algorithm must be {' or '.join(map(repr, sr.ALGORITHMS))}, "
                         f"got {algorithm!r}")
    operator = sr.MeasurementOperator.from_kron_rows(
        model.n_dft, model.n_s, model.selected_rows
    )
    # looked up at call time, so a wrapper installed on the module is used
    result = getattr(sr, algorithm)(operator, model.y, cfg)
    realization = chan.ChannelRealization.from_2d(
        model.n_dft, model.n_t, model.n_r,
        result.x_hat.reshape(model.n_dft, model.n_s),
    )
    return realization, result


def _relative_error(ref: np.ndarray, est: np.ndarray) -> float:
    """||est - ref||^2 / ||ref||^2 over the row-major vectorizations."""
    ref = ref.ravel()
    err = float(np.linalg.norm(est.ravel() - ref)) ** 2
    denom = float(np.linalg.norm(ref)) ** 2
    if denom == 0.0:
        return 0.0 if err == 0.0 else math.inf
    return err / denom


def mse(h_true: chan.ChannelRealization, h_rec: chan.ChannelRealization) -> float:
    """Relative squared error between the doubly-transformed tap grids."""
    return _relative_error(h_true.h_2d, h_rec.h_2d)


def mse_freq(h_true: chan.ChannelRealization, h_rec: chan.ChannelRealization) -> float:
    """Same error measured on the per-tone frequency responses.

    Equal to mse() up to rounding because the transforms are unitary;
    reported separately so outputs carry both views.
    """
    return _relative_error(h_true.h_freq, h_rec.h_freq)


def overhead_report(n_t: int, n_r: int, mode: str, n_kappa: int, n_dft: int,
                    n_tones: int, ltf_duration_us: float,
                    quant_bits: int | None) -> tuple[fb.FeedbackReport, fb.FeedbackReport]:
    """(conventional, proposed) feedback-bit and airtime comparison."""
    conv = fb.FeedbackReport(
        scheme="conventional",
        bits_per_tone=fb.bits_per_tone(n_t, n_r, mode),
        n_tones=n_tones,
        total_bits=fb.total_feedback_bits(n_t, n_r, mode, n_tones),
        airtime_us=snd.ndp_airtime(n_t, "conventional", ltf_duration_us=ltf_duration_us),
    )
    prop_bits = None if quant_bits is None else fb.measurement_feedback_bits(n_kappa, quant_bits)
    prop = fb.FeedbackReport(
        scheme="proposed",
        bits_per_tone=None,
        n_tones=n_kappa,
        total_bits=prop_bits,
        airtime_us=snd.ndp_airtime(n_t, "punctured", n_kappa=n_kappa, n_dft=n_dft,
                                   ltf_duration_us=ltf_duration_us),
    )
    return conv, prop


def run_experiment(cfg: ExperimentConfig, pdp: chan.PdpSpec,
                   trial: int = 0) -> ExperimentResult:
    """One full sounding-feedback-recovery experiment.

    When a threshold is configured, the floor (relative energy of the taps
    the threshold discards from the true channel) is computed and the
    recovery sparsity budget is capped at the thresholded tap count. The
    measurements always come from the true channel. `pdp` is the profile
    `config.validate_config` returns for cfg.
    """
    d = cfg.dims
    seeds = derive_trial_seeds(cfg.master_seed, cfg.sounding.seed, trial)
    corr = chan.SpatialCorrelation(cfg.correlation.rho_tx, cfg.correlation.rho_rx)
    h = chan.generate_channel(pdp, d.n_dft, d.n_t, d.n_r, corr, seed=seeds.channel)
    kappa_realized = chan.sparsity(h.h_2d)

    threshold_floor = None
    kappa_used = cfg.recovery.kappa
    if cfg.sounding.threshold_db is not None:
        h_thr = chan.threshold_taps(h, cfg.sounding.threshold_db)
        threshold_floor = _relative_error(h.h_2d, h_thr.h_2d)
        kappa_used = min(kappa_used, max(chan.sparsity(h_thr.h_2d), 1))

    alloc = snd.allocate_ltf(d.n_dft, d.n_t, seeds.allocation,
                             usable_tones=cfg.sounding.usable_tones)
    model = build_measurement_model(
        h, alloc, cfg.sounding.n_kappa,
        snr_db=cfg.sounding.snr_db,
        quant_bits=cfg.feedback.quant_bits,
        power_mode=cfg.sounding.power_mode,
        noise_seed=seeds.noise,
        subsample_seed=seeds.subsample,
    )
    solver_cfg = sr.RecoveryConfig(
        kappa=kappa_used, tau=cfg.recovery.tau, i_max=cfg.recovery.i_max,
    )
    recovered, recovery = recover_channel(model, solver_cfg, cfg.recovery.algorithm)
    reports = overhead_report(
        d.n_t, d.n_r, cfg.feedback.mode, cfg.sounding.n_kappa, d.n_dft,
        cfg.feedback.n_tones, cfg.feedback.ltf_duration_us, cfg.feedback.quant_bits,
    )
    return ExperimentResult(
        mse=mse(h, recovered),
        mse_freq=mse_freq(h, recovered),
        recovered=recovered,
        recovery=recovery,
        overhead=reports,
        true_channel=h,
        kappa_realized=kappa_realized,
        kappa_used=kappa_used,
        threshold_floor=threshold_floor,
        mac_model_per_iteration=sr.mac_model(d.n_dft * d.n_t * d.n_r,
                                             cfg.sounding.n_kappa, kappa_used),
        seeds=seeds,
    )


def sweep_nkappa(cfg: ExperimentConfig, n_kappa_list, n_trials: int,
                 pdp: chan.PdpSpec) -> list[dict]:
    """Full per-trial result table over the measurement-count sweep.

    One row per (n_kappa, trial) in that order; solver failures are
    recorded in the row (empty stop_reason, the message under "error")
    rather than aborting the sweep.
    """
    if not n_kappa_list:
        raise ValueError("n_kappa_list must not be empty")
    rows = []
    for n_kappa in n_kappa_list:
        cfg_nk = cfg.with_n_kappa(int(n_kappa))
        for trial in range(n_trials):
            try:
                res = run_experiment(cfg_nk, pdp, trial)
                rows.append({
                    "n_kappa": int(n_kappa),
                    "trial": trial,
                    "mse": res.mse,
                    "iterations": res.recovery.iterations,
                    "mac_count": res.recovery.mac_count,
                    "converged": res.recovery.converged,
                    "stop_reason": res.recovery.stop_reason,
                })
            except (sr.DegenerateSupport, sr.InsufficientMeasurements) as exc:
                rows.append({
                    "n_kappa": int(n_kappa),
                    "trial": trial,
                    "mse": math.nan,
                    "iterations": 0,
                    "mac_count": 0,
                    "converged": False,
                    "stop_reason": "",
                    "error": str(exc),
                })
    return rows

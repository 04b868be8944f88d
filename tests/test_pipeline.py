"""Tests for measurement-model assembly, recovery, and experiment runs."""

import dataclasses
import math
import statistics

import numpy as np
import pytest

from cs_sounding import feedback as fb
from cs_sounding import numerics as nm
from cs_sounding import pipeline as pl
from cs_sounding.channel import PdpSpec, generate_channel
from cs_sounding.config import config_from_dict
from cs_sounding.sounding import allocate_ltf
from cs_sounding.sparse_recovery import RecoveryConfig

DEFAULT_PDP = PdpSpec.default()  # what validate_config returns for `pdp: default`


def two_sided(x):
    """Dense oracle of the 2-D transform: F_rows @ x @ F_cols."""
    return nm.dft_matrix(x.shape[0]) @ x @ nm.dft_matrix(x.shape[1])


def base_config(**overrides):
    data = {
        "dims": {"n_dft": 256, "n_t": 4, "n_r": 2},
        "correlation": {"rho_tx": 0.7, "rho_rx": 0.7},
        "recovery": {"kappa": 50, "tau": 1e-6, "i_max": 50},
        "sounding": {"seed": 37, "n_kappa": 200},
        "trials": 1,
        "master_seed": 12345,
    }
    data.update(overrides)
    return config_from_dict(data)


class TestKronConsistency:
    def test_zero_matrix(self):
        assert pl.kron_consistency_check(np.zeros((4, 2))) == 0.0

    def test_random_8x2(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        assert pl.kron_consistency_check(h) < 1e-10

    def test_random_256x8(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((256, 8)) + 1j * rng.standard_normal((256, 8))
        assert pl.kron_consistency_check(h) < 1e-9


class TestBuildMeasurementModel:
    def test_full_noiseless_equals_transform_entries(self):
        h = generate_channel(PdpSpec.default(), 32, 2, 2, seed=2)
        alloc = allocate_ltf(32, 2, seed=3)
        model = pl.build_measurement_model(h, alloc, 32 * 2, subsample_seed=5)
        vec_freq = h.h_freq.ravel()
        np.testing.assert_array_equal(model.y, vec_freq[model.selected_rows])
        # and the frequency grid is the doubly-transformed tap grid
        via_2d = two_sided(h.h_2d).ravel()
        assert np.max(np.abs(model.y - via_2d[model.selected_rows])) < 1e-10

    def test_rows_unique_and_consistent_with_allocation(self):
        h = generate_channel(PdpSpec.default(), 256, 4, 2, seed=4)
        alloc = allocate_ltf(256, 4, seed=9)
        model = pl.build_measurement_model(h, alloc, 200, subsample_seed=6)
        assert model.selected_rows.size == 200
        assert len(np.unique(model.selected_rows)) == 200
        assert model.y.size == 200
        for row in model.selected_rows:
            tone, s = divmod(int(row), model.n_s)
            rx, tx = divmod(s, model.n_t)
            assert alloc.assignment[tone] == tx
            assert 0 <= rx < 2

    def test_rows_rise_strictly(self):
        # the fed-back rows are stored in ascending order, whatever the shuffle picked
        h = generate_channel(PdpSpec.default(), 64, 2, 2, seed=4)
        alloc = allocate_ltf(64, 2, seed=9)
        model = pl.build_measurement_model(h, alloc, 60, subsample_seed=6)
        assert np.all(np.diff(model.selected_rows) > 0)
        np.testing.assert_array_equal(model.y, h.h_freq.ravel()[model.selected_rows])

    def test_both_rx_rows_present_before_subsampling(self):
        h = generate_channel(PdpSpec.default(), 16, 2, 2, seed=5)
        alloc = allocate_ltf(16, 2, seed=7)
        model = pl.build_measurement_model(h, alloc, 32, subsample_seed=8)
        tones = {}
        for row in model.selected_rows:
            tone, s = divmod(int(row), model.n_s)
            rx = s // model.n_t
            tones.setdefault(tone, set()).add(rx)
        assert all(rxs == {0, 1} for rxs in tones.values())

    def test_too_many_measurements(self):
        h = generate_channel(PdpSpec.default(), 16, 2, 2, seed=6)
        alloc = allocate_ltf(16, 2, seed=7)
        with pytest.raises(pl.TooManyMeasurementsRequested):
            pl.build_measurement_model(h, alloc, 16 * 2 + 1)

    def test_quantized_values_near_ideal(self):
        h = generate_channel(PdpSpec.default(), 32, 2, 2, seed=8)
        alloc = allocate_ltf(32, 2, seed=9)
        ideal = pl.build_measurement_model(h, alloc, 40, subsample_seed=4)
        quant = pl.build_measurement_model(h, alloc, 40, quant_bits=10, subsample_seed=4)
        np.testing.assert_array_equal(ideal.selected_rows, quant.selected_rows)
        scale = float(np.max(np.abs(np.concatenate([ideal.y.real, ideal.y.imag]))))
        assert np.max(np.abs(ideal.y - quant.y)) <= math.sqrt(2) * scale / 2**10 + 1e-15

    def test_usable_tone_mask_restricts_rows(self):
        h = generate_channel(PdpSpec.default(), 32, 2, 2, seed=9)
        usable = list(range(8, 28))
        alloc = allocate_ltf(32, 2, seed=5, usable_tones=usable)
        model = pl.build_measurement_model(h, alloc, 30, subsample_seed=2)
        for row in model.selected_rows:
            tone = int(row) // model.n_s
            assert tone in usable


class TestRecoverChannel:
    def test_planted_sparse_exact(self):
        # known sparse grid measured noiselessly at 4x sparsity
        rng = np.random.default_rng(10)
        n_dft, n_s, kappa = 64, 8, 10
        h_2d = np.zeros((n_dft, n_s), dtype=complex)
        idx = rng.choice(n_dft * n_s, kappa, replace=False)
        h_2d.reshape(-1)[idx] = rng.standard_normal(kappa) + 1j * rng.standard_normal(kappa)
        freq = two_sided(h_2d)
        rows = np.sort(rng.choice(n_dft * n_s, 4 * kappa, replace=False))
        model = pl.MeasurementModel(
            n_dft=n_dft, n_t=4, n_r=2,
            selected_rows=rows, y=freq.ravel()[rows],
        )
        rec, res = pl.recover_channel(model, RecoveryConfig(kappa=kappa))
        assert np.linalg.norm(rec.h_2d - h_2d) / np.linalg.norm(h_2d) < 1e-6
        assert res.converged

    def test_model_channel_end_to_end(self):
        cfg = base_config()
        res = pl.run_experiment(cfg, DEFAULT_PDP, trial=0)
        assert res.mse < 1e-3
        assert res.kappa_realized <= 50
        assert res.recovery.iterations <= 50
        assert abs(res.mse - res.mse_freq) < 1e-12 + 0.01 * max(res.mse, 1e-30)

    def test_recovered_views_consistent(self):
        cfg = base_config()
        res = pl.run_experiment(cfg, DEFAULT_PDP, trial=1)
        rec = res.recovered
        np.testing.assert_allclose(two_sided(rec.h_2d), rec.h_freq, atol=1e-10)
        np.testing.assert_allclose(nm.dft_matrix(rec.n_dft) @ rec.h_time, rec.h_freq,
                                   atol=1e-10)

    def test_omp_path(self):
        cfg = base_config(recovery={"kappa": 50, "algorithm": "omp", "i_max": 60})
        res = pl.run_experiment(cfg, DEFAULT_PDP, trial=0)
        assert res.mse < 1e-3

    def test_bad_algorithm_rejected(self):
        h = generate_channel(PdpSpec.default(), 16, 2, 2, seed=1)
        alloc = allocate_ltf(16, 2, seed=1)
        model = pl.build_measurement_model(h, alloc, 20)
        with pytest.raises(ValueError):
            pl.recover_channel(model, RecoveryConfig(kappa=5), algorithm="lasso")


class TestMse:
    def _realization(self, h_2d):
        h_2d = np.asarray(h_2d, dtype=complex)
        n_dft, n_s = h_2d.shape
        f_s = nm.dft_matrix(n_s)
        h_time = h_2d @ f_s
        from cs_sounding.channel import ChannelRealization
        return ChannelRealization(n_dft, n_s, 1, h_time,
                                  nm.dft_matrix(n_dft) @ h_time, h_2d)

    def test_identical_is_zero(self):
        h = self._realization([[1.0, 2.0], [0.5, 0.0]])
        assert pl.mse(h, h) == 0.0

    def test_zero_estimate_is_one(self):
        h = self._realization([[1.0, 2.0], [0.5, 0.0]])
        z = self._realization(np.zeros((2, 2)))
        assert abs(pl.mse(h, z) - 1.0) < 1e-15

    def test_hand_computed_two_entries(self):
        t = self._realization([[3.0], [4.0]])
        r = self._realization([[3.0], [0.0]])
        # |4|^2 / (|3|^2 + |4|^2) = 16/25
        assert abs(pl.mse(t, r) - 16.0 / 25.0) < 1e-12


class TestSeeds:
    def test_deterministic(self):
        a = pl.derive_trial_seeds(42, 7, 3)
        b = pl.derive_trial_seeds(42, 7, 3)
        assert a == b

    def test_trial_zero_keeps_allocation_seed(self):
        assert pl.derive_trial_seeds(42, 7, 0).allocation == 7

    def test_later_trials_derive_new_allocation(self):
        s = pl.derive_trial_seeds(42, 7, 1)
        assert 1 <= s.allocation <= 0xFFFF

    def test_subsample_seed_in_lfsr_range(self):
        for trial in range(20):
            s = pl.derive_trial_seeds(9, 1, trial)
            assert 1 <= s.subsample <= 0xFFFF

    def test_trials_differ(self):
        a = pl.derive_trial_seeds(42, 7, 0)
        b = pl.derive_trial_seeds(42, 7, 1)
        assert a.channel != b.channel


class TestThresholdExperiment:
    def test_floor_reported_and_respected(self):
        cfg = base_config(
            recovery={"kappa": 35, "tau": 1e-6, "i_max": 50},
            sounding={"seed": 37, "n_kappa": 160, "threshold_db": 30.0},
        )
        res = pl.run_experiment(cfg, DEFAULT_PDP, trial=0)
        assert res.threshold_floor is not None
        assert res.kappa_used <= 35
        if res.threshold_floor > 0:
            assert res.mse >= res.threshold_floor * (1 - 1e-9)
            assert res.mse <= 2 * res.threshold_floor
        else:
            assert res.mse < 1e-12

    def test_noise_robustness_regression(self):
        # 30 dB SNR costs less than 10 dB of error on the thresholded setup
        clean_cfg = base_config(
            recovery={"kappa": 35, "tau": 1e-6, "i_max": 50},
            sounding={"seed": 37, "n_kappa": 160, "threshold_db": 30.0},
            master_seed=99,
        )
        noisy_cfg = dataclasses.replace(
            clean_cfg,
            recovery=dataclasses.replace(clean_cfg.recovery, tau=1e-2),
            sounding=dataclasses.replace(clean_cfg.sounding, snr_db=30.0),
        )
        clean = [pl.run_experiment(clean_cfg, DEFAULT_PDP, trial=t).mse for t in range(6)]
        noisy = [pl.run_experiment(noisy_cfg, DEFAULT_PDP, trial=t).mse for t in range(6)]
        assert statistics.median(noisy) < 10 * statistics.median(clean)


class TestSweep:
    def test_table_shape_and_order(self):
        cfg = base_config(
            dims={"n_dft": 64, "n_t": 2, "n_r": 2},
            recovery={"kappa": 12, "tau": 1e-6, "i_max": 30},
            sounding={"seed": 5, "n_kappa": 48},
        )
        rows = pl.sweep_nkappa(cfg, [48, 64], 3, DEFAULT_PDP)
        assert len(rows) == 6
        assert [(r["n_kappa"], r["trial"]) for r in rows] == [
            (48, 0), (48, 1), (48, 2), (64, 0), (64, 1), (64, 2)
        ]
        assert all(set(r) >= {"n_kappa", "trial", "mse", "iterations",
                              "mac_count", "converged", "stop_reason"} for r in rows)

    def test_overdetermined_limit_tiny_error(self):
        cfg = base_config(
            dims={"n_dft": 64, "n_t": 2, "n_r": 2},
            recovery={"kappa": 20, "tau": 1e-6, "i_max": 30},
            sounding={"seed": 5, "n_kappa": 48},
        )
        rows = pl.sweep_nkappa(cfg, [128], 1, DEFAULT_PDP)  # every available estimate
        assert rows[0]["mse"] < 1e-6

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            pl.sweep_nkappa(base_config(), [], 1, DEFAULT_PDP)


class TestOverheadReport:
    def test_conventional_16x4_at_234_tones(self):
        conv, prop = pl.overhead_report(16, 4, "MU", 200, 256, 234, 12.0, 10)
        assert conv.total_bits == 202_176
        assert conv.bits_per_tone == 864
        assert conv.airtime_us == 192.0
        assert prop.airtime_us == 12.0
        assert prop.total_bits == 200 * 2 * 10 + 32

    def test_ideal_mode_has_no_bit_total(self):
        _, prop = pl.overhead_report(4, 2, "SU", 100, 256, 52, 12.0, None)
        assert prop.total_bits is None

    def test_proposed_airtime_multiple_symbols(self):
        _, prop = pl.overhead_report(4, 2, "SU", 300, 256, 52, 12.0, 8)
        assert prop.airtime_us == 24.0

    @pytest.mark.parametrize("n, bits", [(1, 1), (48, 10), (200, 8), (1024, 32)])
    def test_proposed_bits_match_the_quantizer(self, n, bits):
        _, prop = pl.overhead_report(4, 2, "MU", n, 256, 234, 12.0, bits)
        counted = fb.quantize_measurements(np.ones(n), bits).bit_count
        assert prop.total_bits == counted == fb.measurement_feedback_bits(n, bits)

"""Tests for PDP binning and channel realization generation."""

import math

import numpy as np
import pytest

from cs_sounding import numerics as nm
from cs_sounding.channel import (
    ChannelRealization,
    DelaySpreadExceedsDft,
    PdpSpec,
    SpatialCorrelation,
    bin_pdp,
    generate_channel,
    sparsity,
    threshold_taps,
)


class TestPdpSpec:
    def test_normalizes_total_linear_power(self):
        pdp = PdpSpec(taps=((0.0, 0.0), (50.0, 0.0)), sample_period_ns=50.0)
        total = sum(10 ** (p / 10) for _, p in pdp.taps)
        assert abs(total - 1.0) < 1e-12

    def test_default_profile_shape(self):
        pdp = PdpSpec.default()
        assert len(pdp.taps) == 18
        assert pdp.sample_period_ns == 50.0
        deltas = [b - a for (a, _), (b, _) in zip(pdp.taps, pdp.taps[1:])]
        assert all(abs(d - 10.0) < 1e-12 for d in deltas)

    @pytest.mark.parametrize("taps,period", [
        ((), 50.0),
        ((( -1.0, 0.0),), 50.0),
        (((10.0, 0.0), (5.0, 0.0)), 50.0),
        (((0.0, 0.0),), 0.0),
        (((0.0, 0.0),), math.nan),
        (((0.0, 0.0),), math.inf),
        (((0.0, 0.0),), True),
        (((0.0, 0.0), (math.nan, 0.0)), 50.0),
        (((0.0, 0.0), (math.inf, 0.0)), 50.0),
        (((0.0, 0.0), (50.0, math.inf)), 50.0),
        (((0.0, 0.0), (50.0, math.nan)), 50.0),
        (((0.0, 0.0), (50.0, 4000.0)), 50.0),
        (((0.0, -4000.0),), 50.0),
        (((0.0, 0.0), (1e307, 0.0)), 1e-3),  # delay / period overflows
        (((0.0, 0.0), (60.0, 0.0)), 1e-320),
    ])
    def test_invalid_inputs(self, taps, period):
        with pytest.raises(ValueError):
            PdpSpec(taps=taps, sample_period_ns=period)

    def test_from_records(self):
        pdp = PdpSpec.from_records(
            [{"delay_ns": 0, "power_db": 0}, {"delay_ns": 30, "power_db": -3}], 50.0
        )
        assert len(pdp.taps) == 2


class TestBinPdp:
    def test_single_tap_at_zero(self):
        assert bin_pdp(PdpSpec(taps=((0.0, 0.0),))) == [(0, 1.0)]

    def test_same_bin_sums(self):
        pdp = PdpSpec(taps=((10.0, 0.0), (40.0, -3.0)), sample_period_ns=50.0)
        bins = bin_pdp(pdp)
        assert len(bins) == 1
        assert bins[0][0] == 0
        assert abs(bins[0][1] - 1.0) < 1e-12

    def test_default_profile_matches_hand_binning(self):
        pdp = PdpSpec.default()
        bins = dict(bin_pdp(pdp))
        # independent scalar recomputation
        raw = [(10.0 * i, -1.0 * i) for i in range(18)]
        total = sum(10 ** (p / 10) for _, p in raw)
        expected = {}
        for d, p in raw:
            idx = int(d // 50.0)
            expected[idx] = expected.get(idx, 0.0) + 10 ** (p / 10) / total
        assert sorted(bins) == sorted(expected)
        for idx, p in expected.items():
            assert abs(bins[idx] - p) < 1e-12

    def test_powers_sum_to_one(self):
        pdp = PdpSpec(taps=tuple((25.0 * i, -2.0 * i) for i in range(12)))
        assert abs(sum(p for _, p in bin_pdp(pdp)) - 1.0) < 1e-12


class TestGenerateChannel:
    def test_single_tap_support_and_energy(self):
        pdp = PdpSpec(taps=((0.0, 0.0),))
        h = generate_channel(pdp, 16, 2, 2, seed=5)
        assert np.count_nonzero(h.h_time) == h.n_s
        assert np.all(h.h_time[1:] == 0)
        # unit mean entry energy, Monte Carlo over seeds
        acc = 0.0
        n_seeds = 400
        for seed in range(n_seeds):
            hh = generate_channel(pdp, 4, 2, 2, seed=seed)
            acc += float(np.mean(np.abs(hh.h_time[0]) ** 2))
        assert abs(acc / n_seeds - 1.0) < 0.1

    def test_parseval_per_column(self):
        h = generate_channel(PdpSpec.default(), 64, 2, 2, seed=1)
        for s in range(h.n_s):
            assert abs(np.linalg.norm(h.h_freq[:, s]) - np.linalg.norm(h.h_time[:, s])) < 1e-10

    def test_freq_view_is_tone_axis_transform(self):
        h = generate_channel(PdpSpec.default(), 64, 2, 1, seed=2)
        np.testing.assert_allclose(h.h_freq, nm.dft_matrix(64) @ h.h_time, atol=1e-12)
        round_trip = np.fft.ifft(h.h_freq, axis=0, norm="ortho")
        assert np.max(np.abs(round_trip - h.h_time)) < 1e-10

    def test_2d_view_consistent_with_two_sided_transform(self):
        h = generate_channel(PdpSpec.default(), 32, 2, 2, seed=3)
        dense = nm.dft_matrix(32) @ h.h_2d @ nm.dft_matrix(h.n_s)
        np.testing.assert_allclose(dense, h.h_freq, atol=1e-10)

    def test_from_2d_rebuilds_generated_views(self):
        h = generate_channel(PdpSpec.default(), 32, 4, 2, seed=4)
        rebuilt = ChannelRealization.from_2d(32, 4, 2, h.h_2d, seed=4)
        np.testing.assert_array_equal(rebuilt.h_2d, h.h_2d)
        # dense oracle: h_time = h_2d @ F_s, h_freq = F_n @ h_time
        np.testing.assert_allclose(rebuilt.h_time, h.h_2d @ nm.dft_matrix(8), atol=1e-12)
        np.testing.assert_allclose(rebuilt.h_time, h.h_time, atol=1e-12)
        np.testing.assert_allclose(rebuilt.h_freq, h.h_freq, atol=1e-12)
        assert rebuilt.seed == 4

    def test_delay_spread_must_fit(self):
        pdp = PdpSpec(taps=((0.0, 0.0), (500.0, -3.0)), sample_period_ns=50.0)
        with pytest.raises(DelaySpreadExceedsDft):
            generate_channel(pdp, 8, 1, 1, seed=0)

    def test_deterministic_per_seed(self):
        pdp = PdpSpec.default()
        a = generate_channel(pdp, 64, 2, 2, seed=9)
        b = generate_channel(pdp, 64, 2, 2, seed=9)
        np.testing.assert_array_equal(a.h_time, b.h_time)
        np.testing.assert_array_equal(a.h_freq, b.h_freq)
        c = generate_channel(pdp, 64, 2, 2, seed=10)
        assert not np.array_equal(a.h_time, c.h_time)

    def test_tx_correlation_and_column_ordering(self):
        # strong TX correlation, none across RX: adjacent columns inside an
        # RX block must correlate, columns one block apart must not
        pdp = PdpSpec(taps=((0.0, 0.0),))
        corr = SpatialCorrelation(rho_tx=0.999, rho_rx=0.0)
        n_t = 2
        a = np.empty(1000, dtype=complex)
        b = np.empty(1000, dtype=complex)
        c = np.empty(1000, dtype=complex)
        for seed in range(1000):
            h = generate_channel(pdp, 4, n_t, 2, corr, seed=seed)
            a[seed] = h.h_time[0, 0]          # (rx 0, tx 0)
            b[seed] = h.h_time[0, 1]          # (rx 0, tx 1): adjacent tx
            c[seed] = h.h_time[0, n_t]        # (rx 1, tx 0): other rx block
        def corr_mag(x, y):
            return abs(np.mean(x * y.conj())) / math.sqrt(
                np.mean(np.abs(x) ** 2) * np.mean(np.abs(y) ** 2))
        assert corr_mag(a, b) > 0.9
        assert corr_mag(a, c) < 0.2

    def test_energy_normalization_per_pair(self):
        pdp = PdpSpec.default()
        corr = SpatialCorrelation(0.7, 0.7)
        totals = np.zeros(2)  # two tx/rx pairs at (n_t=2, n_r=1)
        n_seeds = 1000
        for seed in range(n_seeds):
            h = generate_channel(pdp, 8, 2, 1, corr, seed=seed)
            totals += np.sum(np.abs(h.h_time) ** 2, axis=0)
        np.testing.assert_allclose(totals / n_seeds, 1.0, rtol=0.05)

    def test_nonzero_rows_bounded_by_binned_delays(self):
        pdp = PdpSpec.default()
        bins = bin_pdp(pdp)
        h = generate_channel(pdp, 256, 4, 2, seed=4)
        nz_rows = int(np.count_nonzero(np.any(h.h_time != 0, axis=1)))
        assert nz_rows <= len(bins)
        assert nz_rows <= 256 // 4  # sparse relative to the tone count


def _manual_realization(values_2d):
    """Build a consistent realization straight from a 2d-domain matrix."""
    h_2d = np.asarray(values_2d, dtype=complex)
    n_dft, n_s = h_2d.shape
    f_s = nm.dft_matrix(n_s)
    h_time = h_2d @ f_s
    return ChannelRealization(n_dft, n_s, 1, h_time, nm.dft_matrix(n_dft) @ h_time, h_2d)


class TestThresholdTaps:
    def test_huge_floor_leaves_realization_untouched(self):
        h = generate_channel(PdpSpec.default(), 64, 2, 2, seed=6)
        out = threshold_taps(h, 300.0)
        np.testing.assert_array_equal(out.h_time, h.h_time)
        np.testing.assert_array_equal(out.h_2d, h.h_2d)

    def test_two_taps_forty_db_apart(self):
        h = _manual_realization(np.array([[1.0], [0.01]]))
        out = threshold_taps(h, 30.0)
        assert out.h_2d[1, 0] == 0
        assert out.h_2d[0, 0] == 1.0

    def test_rebuilt_views_consistent(self):
        h = generate_channel(PdpSpec.default(), 64, 2, 2,
                             SpatialCorrelation(0.7, 0.7), seed=7)
        out = threshold_taps(h, 30.0)
        dense = nm.dft_matrix(64) @ out.h_2d @ nm.dft_matrix(out.n_s)
        np.testing.assert_allclose(dense, out.h_freq, atol=1e-10)
        assert sparsity(out.h_2d) < sparsity(h.h_2d)

    def test_reduces_sparsity_below_35_at_default_model(self):
        pdp = PdpSpec.default()
        corr = SpatialCorrelation(0.7, 0.7)
        for seed in range(10):
            h = generate_channel(pdp, 256, 4, 2, corr, seed=seed)
            before = sparsity(h.h_2d)
            after = sparsity(threshold_taps(h, 30.0).h_2d)
            assert before <= 50
            assert after < 35
            assert after <= before

    def test_rejects_nonpositive_floor(self):
        h = generate_channel(PdpSpec.default(), 64, 2, 2, seed=8)
        with pytest.raises(ValueError):
            threshold_taps(h, 0.0)

    def test_zero_channel_passthrough(self):
        h = _manual_realization(np.zeros((4, 2)))
        out = threshold_taps(h, 30.0)
        assert np.all(out.h_2d == 0)


class TestSparsity:
    def test_zero_vector(self):
        assert sparsity(np.zeros(10, dtype=complex)) == 0

    def test_unit_vector(self):
        e3 = np.zeros(8, dtype=complex)
        e3[3] = 1.0
        assert sparsity(e3) == 1

    def test_exact_zeros_only(self):
        assert sparsity(np.array([1e-300, 0.0, 1.0])) == 2

    def test_default_model_kappa_at_most_50(self):
        pdp = PdpSpec.default()
        good = 0
        for seed in range(100):
            h = generate_channel(pdp, 256, 4, 2,
                                 SpatialCorrelation(0.7, 0.7), seed=seed)
            if sparsity(h.h_2d) <= 50:
                good += 1
        assert good >= 90


class TestSpatialCorrelation:
    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            SpatialCorrelation(rho_tx=1.0)
        with pytest.raises(ValueError):
            SpatialCorrelation(rho_rx=-0.1)

    def test_root_reconstructs_correlation(self):
        corr = SpatialCorrelation(rho_tx=0.8)
        root = corr.tx_root(4)
        target = 0.8 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
        np.testing.assert_allclose(root @ root.T, target, atol=1e-12)

    def test_root_is_computed_once_and_read_only(self):
        # generate_channel reads the same roots every trial; a caller that
        # wrote into one would corrupt every later draw
        root = SpatialCorrelation(rho_rx=0.6).rx_root(3)
        assert SpatialCorrelation(rho_tx=0.6).tx_root(3) is root
        assert not root.flags.writeable
        with pytest.raises(ValueError):
            root[0, 0] = 2.0

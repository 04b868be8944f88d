"""Tests for the LTF training protocol, LFSR, shuffle, and allocation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_sounding.channel import PdpSpec, generate_channel
from cs_sounding.sounding import (
    LtfSequence,
    UnsupportedDimension,
    _lfsr_shift,
    _lfsr_word_table,
    allocate_ltf,
    estimate_conventional,
    knuth_shuffle,
    lfsr_stream,
    ndp_airtime,
    noise_variance,
    p_matrix,
    punctured_sound_and_estimate,
    receive_ltf,
    transmit_ltf_conventional,
)


class TestPMatrix:
    def test_4x4_orthogonal(self):
        p = p_matrix(4).entries
        np.testing.assert_array_equal(p @ p.T, 4 * np.eye(4, dtype=np.int64))

    def test_4x4_columns_are_cyclic_shifts(self):
        p = p_matrix(4).entries
        base = p[:, 0]
        assert base.tolist() == [1, 1, 1, -1]
        for j in range(1, 4):
            np.testing.assert_array_equal(p[:, j], np.roll(base, j))

    def test_2x2(self):
        p = p_matrix(2).entries
        np.testing.assert_array_equal(p, [[1, 1], [1, -1]])
        np.testing.assert_array_equal(p @ p.T, 2 * np.eye(2, dtype=np.int64))

    def test_1x1(self):
        assert p_matrix(1).entries.tolist() == [[1]]

    def test_supplied_matrix_validated(self):
        bad = np.ones((6, 6), dtype=int)
        with pytest.raises(ValueError, match="rejected"):
            p_matrix(6, entries=bad)

    def test_supplied_valid_matrix_accepted(self):
        good = p_matrix(4).entries
        assert p_matrix(4, entries=good).n == 4

    def test_unsupported_without_entries(self):
        with pytest.raises(UnsupportedDimension):
            p_matrix(6)


class TestConventionalSounding:
    def test_all_ones_ltf_transmits_p(self):
        p = p_matrix(4)
        x = transmit_ltf_conventional(LtfSequence.all_ones(8), p)
        assert x.shape == (8, 4, 4)
        for k in range(8):
            np.testing.assert_array_equal(x[k], p.entries)

    def test_sign_flip_linearity(self):
        p = p_matrix(2)
        ltf = LtfSequence(np.array([1.0, -1.0]))
        x = transmit_ltf_conventional(ltf, p)
        np.testing.assert_array_equal(x[1], -x[0])

    def test_unit_power_per_antenna_per_symbol(self):
        x = transmit_ltf_conventional(LtfSequence.all_ones(4), p_matrix(4))
        np.testing.assert_array_equal(np.abs(x) ** 2, np.ones_like(x.real))

    def test_noiseless_receive_is_exact_product(self):
        h = generate_channel(PdpSpec.default(), 16, 4, 2, seed=0)
        x = transmit_ltf_conventional(LtfSequence.all_ones(16), p_matrix(4))
        y = receive_ltf(x, h, snr_db=None)
        for k in range(16):
            tone_matrix = h.h_freq[k].reshape(h.n_r, h.n_t)
            np.testing.assert_allclose(y[k], tone_matrix @ x[k], atol=1e-14)

    def test_infinite_snr_equals_noiseless(self):
        h = generate_channel(PdpSpec.default(), 8, 2, 2, seed=1)
        x = transmit_ltf_conventional(LtfSequence.all_ones(8), p_matrix(2))
        np.testing.assert_array_equal(
            receive_ltf(x, h, snr_db=math.inf), receive_ltf(x, h, snr_db=None)
        )

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -300.5])
    def test_nan_and_minus_inf_snr_rejected(self, snr_db):
        h = generate_channel(PdpSpec.default(), 8, 2, 2, seed=1)
        x = transmit_ltf_conventional(LtfSequence.all_ones(8), p_matrix(2))
        with pytest.raises(ValueError, match="snr_db"):
            receive_ltf(x, h, snr_db=snr_db)

    def test_pure_noise_variance(self):
        # zero channel: the received tensor is noise at the nominal variance
        zero = generate_channel(PdpSpec(taps=((0.0, 0.0),)), 2500, 2, 2, seed=2)
        zero = type(zero)(zero.n_dft, zero.n_t, zero.n_r,
                          np.zeros_like(zero.h_time), np.zeros_like(zero.h_freq),
                          np.zeros_like(zero.h_2d), zero.seed)
        x = transmit_ltf_conventional(LtfSequence.all_ones(2500), p_matrix(2))
        y = receive_ltf(x, zero, snr_db=10.0, seed=3)
        measured = float(np.mean(np.abs(y) ** 2))
        nominal = noise_variance(10.0, 2500)
        assert y.size == 10_000
        assert abs(measured - nominal) / nominal < 0.05

    def test_single_antenna_receive(self):
        h = generate_channel(PdpSpec(taps=((0.0, 0.0),)), 4, 1, 1, seed=4)
        x = transmit_ltf_conventional(LtfSequence.all_ones(4), p_matrix(1))
        y = receive_ltf(x, h, snr_db=None)
        np.testing.assert_allclose(y[:, 0, 0], h.h_freq[:, 0], atol=1e-14)

    def test_estimate_exact_noiseless_4x4(self):
        h = generate_channel(PdpSpec.default(), 32, 4, 4, seed=5)
        ltf = LtfSequence.all_ones(32)
        p = p_matrix(4)
        est = estimate_conventional(receive_ltf(transmit_ltf_conventional(ltf, p), h, None), ltf, p)
        for k in range(32):
            assert np.max(np.abs(est[k] - h.h_freq[k].reshape(h.n_r, h.n_t))) < 1e-12

    def test_estimate_exact_with_negative_symbols(self):
        h = generate_channel(PdpSpec.default(), 16, 2, 2, seed=6)
        ltf = LtfSequence(-np.ones(16))
        p = p_matrix(2)
        est = estimate_conventional(receive_ltf(transmit_ltf_conventional(ltf, p), h, None), ltf, p)
        for k in range(16):
            assert np.max(np.abs(est[k] - h.h_freq[k].reshape(h.n_r, h.n_t))) < 1e-12

    def test_estimation_noise_averaging_gain(self):
        # per-entry estimation error variance is noise variance / n
        n_dft, snr = 2500, 20.0
        h = generate_channel(PdpSpec.default(), n_dft, 4, 1, seed=7)
        ltf = LtfSequence.all_ones(n_dft)
        p = p_matrix(4)
        x = transmit_ltf_conventional(ltf, p)
        est = estimate_conventional(receive_ltf(x, h, snr, seed=8), ltf, p)
        true = h.h_freq.reshape(n_dft, 1, 4)
        err_var = float(np.mean(np.abs(est - true) ** 2))
        expected = noise_variance(snr, n_dft) / 4
        assert abs(err_var - expected) / expected < 0.10

    def test_estimate_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimate_conventional(np.zeros((4, 2, 2)), LtfSequence.all_ones(4), p_matrix(4))

    def test_ltf_symbols_validated(self):
        with pytest.raises(ValueError):
            LtfSequence(np.array([1.0, 0.5]))


def _int64_digest(values):
    """sha256 of the values as little-endian int64 bytes."""
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def _lfsr_words_oracle(seed, n_words):
    """Bit-list simulation of the x^16+x^14+x^13+x^11+1 Fibonacci register."""
    bits = [(seed >> i) & 1 for i in range(16)]  # lsb first
    words = []
    for _ in range(n_words):
        for _ in range(16):
            new = bits[0] ^ bits[2] ^ bits[3] ^ bits[5]
            bits = bits[1:] + [new]
        words.append(sum(b << i for i, b in enumerate(bits)))
    return words


class TestLfsr:
    def test_golden_first_words(self):
        # frozen at implementation time, cross-checked by the bit oracle
        assert lfsr_stream(1, 4) == [26625, 5185, 27515, 38801]
        assert lfsr_stream(0xACE1, 2) == [18210, 50231]

    @pytest.mark.parametrize("seed", [1, 2, 0xACE1, 0xFFFF, 1234])
    def test_matches_bit_level_oracle(self, seed):
        assert lfsr_stream(seed, 8) == _lfsr_words_oracle(seed, 8)

    def test_full_period_returns_to_seed(self):
        state = 0xACE1
        for _ in range(2**16 - 1):
            state = _lfsr_shift(state)
        assert state == 0xACE1

    def test_no_shorter_period_at_word_granularity(self):
        # 65535 and 16 are coprime, so word states cannot repeat early
        seen = set(lfsr_stream(7, 4096))
        assert len(seen) == 4096

    @pytest.mark.parametrize("seed", [0, -1, 0x10000])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            lfsr_stream(seed, 1)
        with pytest.raises(ValueError, match="seed"):
            knuth_shuffle(4, seed)

    def test_stream_digest_frozen_past_the_period(self):
        # 70000 words wrap past the 65535-word period
        assert _int64_digest(lfsr_stream(0xACE1, 70000)) == (
            "52020e8e4986f32a79078b2ae9479c91775a8a3d044875eacb576d7ec35e0877")

    def test_words_in_range(self):
        assert all(1 <= w <= 0xFFFF for w in lfsr_stream(99, 1000))

    def test_word_table_is_sixteen_steps_from_every_state(self):
        table = _lfsr_word_table()
        for state in range(2**16):
            after = state
            for _ in range(16):
                after = _lfsr_shift(after)
            assert table[state] == after, state


class TestKnuthShuffle:
    def test_single_element(self):
        assert knuth_shuffle(1, seed=5).tolist() == [0]

    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=0xFFFF))
    @settings(max_examples=40, deadline=None)
    def test_always_a_permutation(self, n, seed):
        perm = knuth_shuffle(n, seed)
        assert sorted(perm.tolist()) == list(range(n))

    @pytest.mark.parametrize("n, seed, digest", [
        (4096, 7, "7e00f33ee5100ec15ab4ccafe6ffccc48ef492fa152e86f29df835c5e3008e99"),
        (65536, 3, "e0cbead53e14115b7f91dd2fb0df480b1b8dc16e2d08519858304389992a414b"),
        (65535, 0xFFFF, "069d0670e3d501c06f24a12302e1bbc169604e9a3fcf0dc2aef4539d227c155f"),
    ])
    def test_digest_frozen_beyond_fixture_sizes(self, n, seed, digest):
        # the reference fixture only reaches shuffles of 256 and 512 items
        assert _int64_digest(knuth_shuffle(n, seed)) == digest

    def test_deterministic(self):
        np.testing.assert_array_equal(knuth_shuffle(64, 3), knuth_shuffle(64, 3))
        assert not np.array_equal(knuth_shuffle(64, 3), knuth_shuffle(64, 4))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            knuth_shuffle(0, seed=1)

    def test_rejects_n_beyond_16_bit_range_without_drawing(self, monkeypatch):
        # above 2^16 no LFSR word passes the rejection test, so the draw
        # loop would never end; the size check must fire before any draw
        import cs_sounding.sounding as snd

        def no_draws():
            raise AssertionError("the LFSR was started")

        monkeypatch.setattr(snd, "_lfsr_word_table", no_draws)
        with pytest.raises(ValueError, match="65536"):
            knuth_shuffle(2**16 + 1, seed=1)

    def test_uniformity_chi_square(self):
        # every element lands in every position with frequency 1/8 +- 3 sigma
        n = 8
        n_seeds = 100_000
        counts = np.zeros((n, n), dtype=np.int64)
        for i in range(n_seeds):
            perm = knuth_shuffle(n, (i % 0xFFFF) + 1)
            counts[perm, np.arange(n)] += 1
        p = 1.0 / n
        sigma = math.sqrt(p * (1 - p) / n_seeds)
        dev = np.abs(counts / n_seeds - p)
        assert float(dev.max()) <= 3 * sigma


class TestAllocateLtf:
    def test_52_tones_4_antennas(self):
        alloc = allocate_ltf(52, 4, seed=11)
        for antenna in range(4):
            assert alloc.tones_for(antenna).size == 13

    def test_single_antenna_gets_everything(self):
        alloc = allocate_ltf(16, 1, seed=2)
        assert alloc.tones_for(0).size == 16

    @pytest.mark.parametrize("n_dft,n_t,seed", [
        (52, 4, 1), (53, 4, 77), (256, 4, 9), (64, 3, 12345), (13, 13, 5),
    ])
    def test_partition_property(self, n_dft, n_t, seed):
        alloc = allocate_ltf(n_dft, n_t, seed)
        sets = [set(alloc.tones_for(a).tolist()) for a in range(n_t)]
        assert sum(len(s) for s in sets) == n_dft
        assert set().union(*sets) == set(range(n_dft))
        sizes = sorted(len(s) for s in sets)
        assert sizes[-1] - sizes[0] <= 1

    def test_seed_agreement_both_sides(self):
        # beamformer and beamformee recompute the same allocation
        a = allocate_ltf(256, 4, seed=37)
        b = allocate_ltf(256, 4, seed=37)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_usable_tone_mask(self):
        usable = list(range(4, 20))
        alloc = allocate_ltf(32, 4, seed=3, usable_tones=usable)
        assert np.all(alloc.assignment[:4] == -1)
        assert np.all(alloc.assignment[20:] == -1)
        assert sorted(alloc.sounded_tones.tolist()) == usable
        for antenna in range(4):
            assert alloc.tones_for(antenna).size == 4

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            allocate_ltf(16, 4, seed=1, usable_tones=[99])
        with pytest.raises(ValueError):
            allocate_ltf(16, 4, seed=1, usable_tones=[0, 1])


class TestPuncturedSounding:
    def test_noiseless_estimates_exact(self):
        h = generate_channel(PdpSpec.default(), 64, 4, 2, seed=12)
        alloc = allocate_ltf(64, 4, seed=13)
        ltf = LtfSequence.all_ones(64)
        ests = punctured_sound_and_estimate(h, alloc, ltf, snr_db=None)
        assert len(ests) == 64 * 2
        for e in ests:
            assert e.value == h.h_freq[e.tone, e.rx * 4 + e.tx]
            assert alloc.assignment[e.tone] == e.tx

    def test_boosted_noiseless_close(self):
        h = generate_channel(PdpSpec.default(), 32, 2, 1, seed=14)
        alloc = allocate_ltf(32, 2, seed=15)
        ltf = LtfSequence.all_ones(32)
        ests = punctured_sound_and_estimate(h, alloc, ltf, None, power_mode="boosted")
        for e in ests:
            assert abs(e.value - h.h_freq[e.tone, e.rx * 2 + e.tx]) < 1e-12

    def test_infinite_snr_equals_noiseless(self):
        h = generate_channel(PdpSpec.default(), 16, 2, 2, seed=12)
        alloc = allocate_ltf(16, 2, seed=13)
        ltf = LtfSequence.all_ones(16)
        np.testing.assert_array_equal(
            punctured_sound_and_estimate(h, alloc, ltf, math.inf).value,
            punctured_sound_and_estimate(h, alloc, ltf, None).value)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -300.5])
    def test_nan_and_minus_inf_snr_rejected(self, snr_db):
        h = generate_channel(PdpSpec.default(), 16, 2, 2, seed=12)
        alloc = allocate_ltf(16, 2, seed=13)
        with pytest.raises(ValueError, match="snr_db"):
            punctured_sound_and_estimate(h, alloc, LtfSequence.all_ones(16), snr_db)

    def test_noise_drawn_per_rx_antenna_in_order(self):
        # rx antenna m gets the m-th standard-normal draw of n_tones entries
        h = generate_channel(PdpSpec.default(), 16, 2, 3, seed=12)
        alloc = allocate_ltf(16, 2, seed=13)
        ests = punctured_sound_and_estimate(h, alloc, LtfSequence.all_ones(16), 10.0, seed=5)
        rng = np.random.default_rng(5)
        scale = math.sqrt(noise_variance(10.0, 16) / 2.0)
        for m in range(3):
            noise = scale * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
            mine = ests[ests.rx == m]
            np.testing.assert_allclose(
                mine.value - h.h_freq[mine.tone, m * 2 + mine.tx], noise, atol=1e-15)

    def test_boosted_noise_reduction(self):
        h = generate_channel(PdpSpec.default(), 256, 4, 2, seed=16)
        alloc = allocate_ltf(256, 4, seed=17)
        ltf = LtfSequence.all_ones(256)
        errs = {}
        for mode, base_seed in (("uniform", 100), ("boosted", 4100)):
            acc = []
            for s in range(8):
                for e in punctured_sound_and_estimate(h, alloc, ltf, 20.0,
                                                      power_mode=mode,
                                                      seed=base_seed + s):
                    acc.append(e.value - h.h_freq[e.tone, e.rx * 4 + e.tx])
            errs[mode] = float(np.var(np.asarray(acc)))
        ratio = errs["boosted"] / errs["uniform"]
        assert abs(ratio * 4 - 1.0) < 0.15

    def test_trivial_single_antenna_pair(self):
        h = generate_channel(PdpSpec(taps=((0.0, 0.0),)), 8, 1, 1, seed=18)
        alloc = allocate_ltf(8, 1, seed=19)
        ests = punctured_sound_and_estimate(h, alloc, LtfSequence.all_ones(8), None)
        assert [e.value for e in ests] == h.h_freq[:, 0].tolist()

    def test_bad_power_mode(self):
        h = generate_channel(PdpSpec.default(), 8, 1, 1, seed=20)
        alloc = allocate_ltf(8, 1, seed=21)
        with pytest.raises(ValueError):
            punctured_sound_and_estimate(h, alloc, LtfSequence.all_ones(8),
                                         None, power_mode="loud")

    def test_output_sorted_by_tone_then_rx(self):
        h = generate_channel(PdpSpec.default(), 16, 2, 2, seed=22)
        alloc = allocate_ltf(16, 2, seed=23)
        ests = punctured_sound_and_estimate(h, alloc, LtfSequence.all_ones(16), None)
        keys = [(e.tone, e.rx) for e in ests]
        assert keys == sorted(keys)


class TestNdpAirtime:
    def test_conventional_16_antennas(self):
        assert ndp_airtime(16, "conventional", ltf_duration_us=12.0) == 192.0

    def test_punctured_single_symbol(self):
        assert ndp_airtime(4, "punctured", n_kappa=200, n_dft=256,
                           ltf_duration_us=12.0) == 12.0

    def test_punctured_two_symbols(self):
        assert ndp_airtime(4, "punctured", n_kappa=300, n_dft=256,
                           ltf_duration_us=12.0) == 24.0

    def test_punctured_zero_measurements_still_one_symbol(self):
        assert ndp_airtime(4, "punctured", n_kappa=0, n_dft=64,
                           ltf_duration_us=4.0) == 4.0

    def test_airtime_dominance(self):
        for n_t, n_kappa, n_dft in [(4, 512, 256), (8, 100, 64), (16, 256, 256)]:
            punct = ndp_airtime(n_t, "punctured", n_kappa=n_kappa, n_dft=n_dft)
            conv = ndp_airtime(n_t, "conventional")
            if n_kappa <= n_t * n_dft:
                assert punct <= conv

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            ndp_airtime(4, "both")

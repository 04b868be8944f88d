"""Tests for the Givens-angle feedback path and the measurement quantizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_sounding.feedback import (
    HEADER_BITS,
    GivensAngles,
    NotSemiUnitary,
    angle_pairs,
    bits_per_tone,
    givens_decompose,
    givens_reconstruct,
    quantize_angles,
    quantize_measurements,
    total_feedback_bits,
)


def random_semi_unitary(rng, n_t, n_c):
    a = rng.standard_normal((n_t, n_c)) + 1j * rng.standard_normal((n_t, n_c))
    return np.linalg.qr(a)[0]


def phase_aligned_error(v, rec):
    """Frobenius-style error after the optimal per-column phase match."""
    phases = np.exp(1j * np.angle(np.sum(v.conj() * rec, axis=0)))
    return float(np.max(np.abs(rec - v * phases)))


class TestAnglePairs:
    @pytest.mark.parametrize("n_t,n_c,expected", [
        (2, 2, 1), (4, 2, 5), (16, 4, 54), (2, 1, 1), (4, 4, 6),
        (8, 2, 13), (16, 2, 29),
    ])
    def test_counts(self, n_t, n_c, expected):
        assert angle_pairs(n_t, n_c) == expected

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            angle_pairs(0, 1)


class TestBitsPerTone:
    # the full standard table for (n_t)T(n_c)R pairs
    TABLE = {
        ("SU", 2, 2): 10, ("SU", 4, 2): 50, ("SU", 8, 2): 130,
        ("SU", 16, 2): 290, ("SU", 16, 4): 540,
        ("MU", 2, 2): 16, ("MU", 4, 2): 80, ("MU", 8, 2): 208,
        ("MU", 16, 2): 464, ("MU", 16, 4): 864,
    }

    def test_all_table_entries(self):
        for (mode, n_t, n_c), bits in self.TABLE.items():
            assert bits_per_tone(n_t, n_c, mode) == bits

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            bits_per_tone(4, 2, "XX")

    def test_total_bits_80mhz_16x4(self):
        assert total_feedback_bits(16, 4, "MU", 234) == 202_176

    def test_total_bits_zero_tones(self):
        assert total_feedback_bits(4, 2, "SU", 0) == 0

    def test_total_bits_20mhz_4x2(self):
        assert total_feedback_bits(4, 2, "SU", 52) == 2_600


class TestGivensDecompose:
    def test_identity_columns_give_zero_angles(self):
        v = np.eye(4, dtype=complex)[:, :2]
        angles = givens_decompose(v)
        assert np.all(angles.phi == 0)
        assert np.all(angles.psi == 0)

    def test_two_by_one_equal_weights(self):
        v = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        angles = givens_decompose(v)
        assert angles.phi.size == 1 and angles.psi.size == 1
        assert abs(angles.phi[0]) < 1e-12
        assert abs(angles.psi[0] - np.pi / 4) < 1e-12

    def test_angle_counts_match_pair_formula(self):
        rng = np.random.default_rng(0)
        for n_t, n_c in [(2, 1), (4, 2), (8, 4), (16, 4), (3, 3)]:
            v = random_semi_unitary(rng, n_t, n_c)
            angles = givens_decompose(v)
            assert angles.phi.size == angle_pairs(n_t, n_c)
            assert angles.psi.size == angle_pairs(n_t, n_c)

    def test_angle_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = random_semi_unitary(rng, 6, 3)
            angles = givens_decompose(v)
            assert np.all((angles.phi >= 0) & (angles.phi < 2 * np.pi))
            assert np.all((angles.psi >= 0) & (angles.psi <= np.pi / 2 + 1e-12))

    def test_not_semi_unitary_rejected(self):
        with pytest.raises(NotSemiUnitary):
            givens_decompose(np.ones((4, 2), dtype=complex))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            givens_decompose(np.eye(2, 4, dtype=complex))


class TestGivensReconstruct:
    def test_zero_angles_give_identity_columns(self):
        angles = GivensAngles(4, 2, np.zeros(5), np.zeros(5))
        np.testing.assert_array_equal(
            givens_reconstruct(angles), np.eye(4, dtype=complex)[:, :2]
        )

    def test_roundtrip_random_4x2(self):
        rng = np.random.default_rng(2)
        v = random_semi_unitary(rng, 4, 2)
        rec = givens_reconstruct(givens_decompose(v))
        assert phase_aligned_error(v, rec) < 1e-9

    @pytest.mark.parametrize("n_t,n_c", [(2, 1), (2, 2), (4, 2), (4, 4),
                                         (8, 4), (16, 4)])
    def test_roundtrip_100_seeds(self, n_t, n_c):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            v = random_semi_unitary(rng, n_t, n_c)
            rec = givens_reconstruct(givens_decompose(v))
            worst = max(worst, phase_aligned_error(v, rec))
        assert worst < 1e-9

    def test_reconstruction_is_semi_unitary(self):
        rng = np.random.default_rng(3)
        v = random_semi_unitary(rng, 8, 3)
        rec = givens_reconstruct(givens_decompose(v))
        assert np.max(np.abs(rec.conj().T @ rec - np.eye(3))) < 1e-10

    def test_quantized_roundtrip_chordal_distance(self):
        # multi-user bit widths keep the 4x2 subspace within 0.05
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            v = random_semi_unitary(rng, 4, 2)
            rec = givens_reconstruct(quantize_angles(givens_decompose(v), "MU"))
            proj_v = v @ v.conj().T
            proj_r = rec @ rec.conj().T
            chordal = float(np.linalg.norm(proj_v - proj_r)) / math.sqrt(2)
            worst = max(worst, chordal)
        assert worst < 0.05

    def test_angle_count_validation(self):
        with pytest.raises(ValueError):
            GivensAngles(4, 2, np.zeros(4), np.zeros(5))


class TestQuantizeMeasurements:
    def test_ideal_mode_is_identity(self):
        vals = np.array([1 + 2j, -0.25 + 0.125j])
        for sentinel in (None, math.inf):
            q = quantize_measurements(vals, sentinel)
            np.testing.assert_array_equal(q.values, vals)
            assert q.bit_count is None
            assert q.payload == b""

    def test_single_value_error_bound_8_bits(self):
        q = quantize_measurements([1.0 + 0.0j], 8)
        err = abs(q.values[0] - (1.0 + 0.0j))
        # componentwise bound: half a step, scale / 2**bits
        assert abs(q.values[0].real - 1.0) <= 2.0**-8 + 1e-15
        assert abs(q.values[0].imag) <= 2.0**-8 + 1e-15
        assert err <= math.sqrt(2) * 2.0**-8 + 1e-15

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        for bits in (4, 8, 12):
            q = quantize_measurements(vals, bits)
            half_step = q.scale / 2**bits
            assert float(np.max(np.abs(q.values.real - vals.real))) <= half_step + 1e-15
            assert float(np.max(np.abs(q.values.imag - vals.imag))) <= half_step + 1e-15

    def test_error_monotone_in_bits(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        errs = [float(np.max(np.abs(quantize_measurements(vals, b).values - vals)))
                for b in range(2, 14)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_bit_count_and_payload_size(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        q = quantize_measurements(vals, 10)
        assert q.bit_count == 200 * 2 * 10 + HEADER_BITS
        assert len(q.payload) == math.ceil(200 * 2 * 10 / 8)

    def test_zero_input(self):
        q = quantize_measurements(np.zeros(4, dtype=complex), 6)
        np.testing.assert_array_equal(q.values, np.zeros(4, dtype=complex))
        assert q.bit_count == 4 * 2 * 6 + HEADER_BITS

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            quantize_measurements([1.0], 0)
        # the level indices are packed from uint32: 33 bits used to wrap them
        for bits in (33, 2000):
            with pytest.raises(ValueError, match="32"):
                quantize_measurements([1.0], bits)

    def test_widest_width_payload_decodes_to_values(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        q = quantize_measurements(vals, 32)
        idx = np.frombuffer(q.payload, dtype=">u4").astype(np.float64)
        step = 2.0 * q.scale / 2**32
        deq = -q.scale + (idx + 0.5) * step
        np.testing.assert_array_equal(q.values, deq[:8] + 1j * deq[8:])
        assert float(np.max(np.abs(q.values - vals))) <= step

    @given(st.integers(min_value=1, max_value=14),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_dequantize_error_bound_property(self, bits, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        q = quantize_measurements(vals, bits)
        half_step = q.scale / 2**bits
        assert float(np.max(np.abs(q.values.real - vals.real))) <= half_step + 1e-12
        assert float(np.max(np.abs(q.values.imag - vals.imag))) <= half_step + 1e-12

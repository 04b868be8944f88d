"""Precoder feedback paths and their bit budgets.

The conventional 802.11 path decomposes the per-tone SVD precoder into
Givens rotation angles (phi in [0, 2pi), psi in [0, pi/2]), quantized at
the standard SU/MU bit widths. The proposed path skips all of that and
ships the raw punctured channel estimates through a uniform mid-rise
quantizer with one shared scale header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HEADER_BITS = 32  # shared quantizer scale, sent once per report
MAX_QUANT_BITS = 32  # level indices are packed from uint32

ANGLE_BIT_WIDTHS = {"SU": (6, 4), "MU": (9, 7)}  # (phi, psi) bits per angle


class NotSemiUnitary(ValueError):
    """Input columns are not orthonormal to the required tolerance."""


@dataclass(frozen=True)
class GivensAngles:
    """Angle factorization of a semi-unitary n_t x n_c matrix.

    phi and psi are stored flat, column by column: column i contributes
    phi for rows i..n_t-2 and psi for rows i+1..n_t-1.
    """

    n_t: int
    n_c: int
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        expected = angle_pairs(self.n_t, self.n_c)
        if len(self.phi) != expected or len(self.psi) != expected:
            raise ValueError(
                f"expected {expected} phi/psi angles for "
                f"({self.n_t}, {self.n_c}), got {len(self.phi)}/{len(self.psi)}"
            )


@dataclass(frozen=True)
class FeedbackReport:
    """Bit and airtime ledger for one feedback scheme."""

    scheme: str
    bits_per_tone: int | None
    n_tones: int
    total_bits: int
    airtime_us: float


def angle_pairs(n_t: int, n_c: int) -> int:
    """Number of (phi, psi) angle pairs for an n_t x n_c precoder."""
    if n_t < 1 or n_c < 1:
        raise ValueError("dimensions must be positive")
    return sum(n_t - i for i in range(1, min(n_c, n_t - 1) + 1))


def bits_per_tone(n_t: int, n_c: int, mode: str) -> int:
    """Quantized-angle feedback bits per tone for the given mode."""
    if mode not in ANGLE_BIT_WIDTHS:
        raise ValueError(f"mode must be one of {sorted(ANGLE_BIT_WIDTHS)}, got {mode!r}")
    b_phi, b_psi = ANGLE_BIT_WIDTHS[mode]
    return angle_pairs(n_t, n_c) * (b_phi + b_psi)


def total_feedback_bits(n_t: int, n_c: int, mode: str, n_tones: int) -> int:
    if n_tones < 0:
        raise ValueError("n_tones must be >= 0")
    return bits_per_tone(n_t, n_c, mode) * n_tones


def givens_decompose(v: np.ndarray) -> GivensAngles:
    """Extract the angle factorization of a semi-unitary matrix.

    Column phases making the last row real non-negative are absorbed (the
    precoder equivalence class) and not part of the feedback. For every
    column i, phase angles make entries (i..n_t-2, i) real non-negative,
    then real rotations zero the entries below the diagonal.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise ValueError(f"expected a tall n_t x n_c matrix, got shape {v.shape}")
    n_t, n_c = v.shape
    gram_err = np.max(np.abs(v.conj().T @ v - np.eye(n_c)))
    if gram_err > 1e-8:
        raise NotSemiUnitary(f"columns not orthonormal: max deviation {gram_err:.3e}")

    work = v.copy()
    # absorb per-column phase: last row becomes real non-negative
    work *= np.exp(-1j * np.angle(work[-1, :]))[None, :]

    phis: list[float] = []
    psis: list[float] = []
    steps = min(n_c, n_t - 1)
    for i in range(steps):
        col_phis = np.mod(np.angle(work[i:n_t - 1, i]), 2.0 * np.pi)
        phis.extend(float(p) for p in col_phis)
        work[i:n_t - 1, :] *= np.exp(-1j * col_phis)[:, None]
        for l in range(i + 1, n_t):
            a = max(work[i, i].real, 0.0)
            b = max(work[l, i].real, 0.0)
            psi = math.atan2(b, a)
            psis.append(psi)
            c, s = math.cos(psi), math.sin(psi)
            row_i = work[i, :].copy()
            row_l = work[l, :].copy()
            work[i, :] = c * row_i + s * row_l
            work[l, :] = -s * row_i + c * row_l
    return GivensAngles(n_t, n_c, np.array(phis), np.array(psis))


def givens_reconstruct(angles: GivensAngles) -> np.ndarray:
    """Rebuild the precoder from its angles.

    Equals the decomposed matrix up to one phase per column (the absorbed
    equivalence class). All-zero angles give the identity columns.
    """
    n_t, n_c = angles.n_t, angles.n_c
    steps = min(n_c, n_t - 1)
    # slice the flat angle arrays back into per-column runs
    phi_runs: list[np.ndarray] = []
    psi_runs: list[np.ndarray] = []
    pos = 0
    for i in range(steps):
        run = n_t - 1 - i
        phi_runs.append(np.asarray(angles.phi[pos:pos + run], dtype=np.float64))
        psi_runs.append(np.asarray(angles.psi[pos:pos + run], dtype=np.float64))
        pos += run

    m = np.eye(n_t, dtype=np.complex128)[:, :n_c]
    for i in range(steps - 1, -1, -1):
        for l in range(n_t - 1, i, -1):
            psi = psi_runs[i][l - i - 1]
            c, s = math.cos(psi), math.sin(psi)
            row_i = m[i, :].copy()
            row_l = m[l, :].copy()
            m[i, :] = c * row_i - s * row_l
            m[l, :] = s * row_i + c * row_l
        m[i:n_t - 1, :] *= np.exp(1j * phi_runs[i])[:, None]
    return m


def _quantize_uniform(x: np.ndarray, lo: float, hi: float,
                      bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Mid-rise uniform quantization of values in [lo, hi]: the level
    indices (as floats) and the dequantized values."""
    levels = 2**bits
    step = (hi - lo) / levels
    idx = np.clip(np.floor((x - lo) / step), 0, levels - 1)
    return idx, lo + (idx + 0.5) * step


def quantize_angles(angles: GivensAngles, mode: str) -> GivensAngles:
    """Quantize phi over [0, 2pi) and psi over [0, pi/2] at the mode widths."""
    b_phi, b_psi = ANGLE_BIT_WIDTHS[mode]
    return GivensAngles(
        angles.n_t,
        angles.n_c,
        _quantize_uniform(np.asarray(angles.phi), 0.0, 2.0 * np.pi, b_phi)[1],
        _quantize_uniform(np.asarray(angles.psi), 0.0, np.pi / 2.0, b_psi)[1],
    )


def measurement_feedback_bits(n_values: int, bits_per_component: int) -> int:
    """Bits of a quantized report: both components of every value, plus the header."""
    return n_values * 2 * bits_per_component + HEADER_BITS


@dataclass(frozen=True)
class QuantizedMeasurements:
    """Quantizer output: dequantized values plus the exact bit payload."""

    values: np.ndarray
    bits_per_component: int | None
    scale: float
    payload: bytes
    bit_count: int | None


def quantize_measurements(values, bits_per_component: int | None) -> QuantizedMeasurements:
    """Uniform mid-rise quantization of complex measurements.

    Real and imaginary parts are quantized separately against one shared
    scale (max absolute component), which travels as a fixed-size header.
    Per-component error is at most step/2 = scale / 2**bits. Passing None
    (or inf) selects the ideal mode: values unchanged, no payload. Widths
    above MAX_QUANT_BITS raise ValueError.
    """
    vals = np.asarray(values, dtype=np.complex128).ravel()
    if bits_per_component is None or math.isinf(bits_per_component):
        return QuantizedMeasurements(vals.copy(), None, 0.0, b"", None)
    bits = int(bits_per_component)
    if not 1 <= bits <= MAX_QUANT_BITS:
        raise ValueError(
            f"bits_per_component must be in [1, {MAX_QUANT_BITS}], got {bits}")
    comps = np.concatenate([vals.real, vals.imag])
    scale = float(np.max(np.abs(comps))) if comps.size else 0.0
    bit_count = measurement_feedback_bits(vals.size, bits)
    if scale == 0.0:
        return QuantizedMeasurements(
            np.zeros_like(vals), bits, 0.0,
            bytes(math.ceil(vals.size * 2 * bits / 8)), bit_count,
        )
    idx, deq = _quantize_uniform(comps, -scale, scale, bits)
    out = deq[:vals.size] + 1j * deq[vals.size:]
    bit_cols = (idx.astype(np.uint32)[:, None] >> np.arange(bits - 1, -1, -1)) & 1
    payload = np.packbits(bit_cols.astype(np.uint8).ravel()).tobytes()
    return QuantizedMeasurements(out, bits, scale, payload, bit_count)

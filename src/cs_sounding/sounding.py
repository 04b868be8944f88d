"""LTF training protocol, conventional and punctured.

Conventional sounding spreads the per-tone training symbol across all TX
antennas over repeated LTF symbols through an orthogonal +/-1 mapping
matrix. The punctured variant instead assigns every tone to exactly one
TX antenna via an LFSR-seeded Fisher-Yates permutation, so a single LTF
symbol sounds all antennas on disjoint tone sets. Both sides of the link
can regenerate the allocation from the shared 16-bit seed alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization


class UnsupportedDimension(ValueError):
    """No built-in mapping matrix for this size and none supplied."""


LFSR_STATE_BITS = 16
LFSR_PERIOD = 2**LFSR_STATE_BITS - 1
# Largest n knuth_shuffle can permute: each draw needs a 16-bit word below
# floor(2^16 / k) * k, which no word is once the range k exceeds 2^16.
MAX_SHUFFLE_SIZE = 2**LFSR_STATE_BITS
POWER_MODES = ("uniform", "boosted")
MIN_SNR_DB = -300.0  # keeps the noise variance 10**(-snr_db/10) finite


@dataclass(frozen=True)
class PMatrix:
    """Orthogonal +/-1 antenna mapping matrix with P @ P.T == n * I."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def p_matrix(n: int, entries=None) -> PMatrix:
    """Built-in mapping matrix for n in {1, 2, 4}, or validate a supplied one.

    The 4x4 form has columns that are cyclic shifts of (1, 1, 1, -1).
    Larger sizes (6x6, 8x8) must be supplied explicitly and are checked
    for exact integer orthogonality.
    """
    if entries is not None:
        p = np.asarray(entries, dtype=np.int64)
        if p.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {p.shape}")
        if not np.isin(p, (-1, 1)).all():
            raise ValueError("mapping matrix entries must be +1 or -1")
        if not np.array_equal(p @ p.T, n * np.eye(n, dtype=np.int64)):
            raise ValueError("mapping matrix rejected: P @ P.T != n * I")
        return PMatrix(p)
    if n == 1:
        return PMatrix(np.array([[1]], dtype=np.int64))
    if n == 2:
        return PMatrix(np.array([[1, 1], [1, -1]], dtype=np.int64))
    if n == 4:
        base = np.array([1, 1, 1, -1], dtype=np.int64)
        cols = [np.roll(base, j) for j in range(4)]
        return PMatrix(np.stack(cols, axis=1))
    raise UnsupportedDimension(
        f"no built-in {n}x{n} mapping matrix; supply entries explicitly"
    )


@dataclass(frozen=True)
class LtfSequence:
    """Per-tone training symbols, each +1 or -1."""

    symbols: np.ndarray

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.float64)
        if sym.ndim != 1 or not np.isin(sym, (-1.0, 1.0)).all():
            raise ValueError("LTF symbols must be a 1-D array of +/-1")
        object.__setattr__(self, "symbols", sym)

    @classmethod
    def all_ones(cls, n_dft: int) -> "LtfSequence":
        return cls(np.ones(n_dft))

    def __len__(self) -> int:
        return self.symbols.shape[0]


def noise_variance(snr_db: float, n_dft: int) -> float:
    """Per-entry complex noise variance for a given per-tone SNR.

    Channels are unit energy per TX/RX pair, so the mean per-tone received
    power from a single unit-power antenna is 1/n_dft; snr_db is defined
    against that reference.
    """
    return 10.0 ** (-snr_db / 10.0) / n_dft


def _noisy(snr_db: float | None) -> bool:
    """None or +inf means noiseless, a finite SNR down to MIN_SNR_DB adds
    noise; NaN and anything lower raise."""
    if snr_db is not None and not snr_db >= MIN_SNR_DB:
        raise ValueError(f"snr_db must be >= {MIN_SNR_DB:g} dB, +inf or None, got {snr_db!r}")
    return snr_db is not None and snr_db != math.inf


def _complex_noise(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def transmit_ltf_conventional(ltf: LtfSequence, p: PMatrix) -> np.ndarray:
    """Per-tone transmit symbols X_k = P * L_k, shape (n_dft, n_t, n_p)."""
    return ltf.symbols[:, None, None] * p.entries[None, :, :].astype(np.float64)


def receive_ltf(x: np.ndarray, h: ChannelRealization, snr_db: float | None,
                seed: int = 0) -> np.ndarray:
    """Propagate the LTF symbols: Y_k = H_k @ X_k + noise.

    Returns shape (n_dft, n_r, n_p). snr_db None or +inf means noiseless;
    NaN and values below MIN_SNR_DB raise ValueError.
    """
    x = np.asarray(x)
    if x.shape[0] != h.n_dft or x.shape[1] != h.n_t:
        raise ValueError(
            f"transmit tensor shape {x.shape} does not match channel "
            f"({h.n_dft} tones, {h.n_t} tx)"
        )
    h_k = h.h_freq.reshape(h.n_dft, h.n_r, h.n_t)
    y = np.einsum("krt,ktp->krp", h_k, x)
    if _noisy(snr_db):
        rng = np.random.default_rng(seed)
        y = y + _complex_noise(rng, y.shape, noise_variance(snr_db, h.n_dft))
    return y


def estimate_conventional(y: np.ndarray, ltf: LtfSequence, p: PMatrix) -> np.ndarray:
    """Per-tone channel estimate (L_k / n) * Y_k @ P.T, shape (n_dft, n_r, n_t).

    The 1/n factor undoes P @ P.T == n * I, so the noiseless estimate is
    exact.
    """
    y = np.asarray(y)
    n = p.n
    if y.ndim != 3 or y.shape[2] != n or y.shape[0] != len(ltf):
        raise ValueError(
            f"received tensor shape {y.shape} does not match "
            f"{len(ltf)} tones and {n} LTF symbols"
        )
    unspread = np.einsum("krp,tp->krt", y, p.entries.astype(np.float64))
    return unspread * (ltf.symbols / n)[:, None, None]


def _lfsr_shift(s):
    """One shift of the Fibonacci LFSR over x^16 + x^14 + x^13 + x^11 + 1
    (maximal length), on an int or an integer array of states."""
    bit = (s ^ (s >> 2) ^ (s >> 3) ^ (s >> 5)) & 1
    return (s >> 1) | (bit << 15)


@functools.cache
def _lfsr_word_table() -> memoryview:
    """Read-only uint16 table: the LFSR state after 16 shifts, for every
    16-bit state, built once per process with vectorized shifts."""
    s = np.arange(2**LFSR_STATE_BITS, dtype=np.uint32)
    for _ in range(LFSR_STATE_BITS):
        s = _lfsr_shift(s)
    return memoryview(s.astype(np.uint16).tobytes()).cast("H")


def _check_seed(seed: int) -> None:
    if not 1 <= seed <= LFSR_PERIOD:
        raise ValueError(f"LFSR seed must be a nonzero 16-bit integer, got {seed}")


def lfsr_stream(seed: int, count: int) -> list[int]:
    """First `count` 16-bit words of the LFSR word sequence for `seed`:
    each word is the state after 16 more shifts.

    Reference value, frozen in the tests: seed 1 emits 26625 first.
    """
    _check_seed(seed)
    table = _lfsr_word_table()
    words = []
    state = int(seed)
    for _ in range(count):
        state = table[state]
        words.append(state)
    return words


def knuth_shuffle(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of 0..n-1 driven by the LFSR words of `seed`.

    Words >= floor(2^16 / k) * k are rejected before the modulo, keeping
    every draw uniform over its range. Raises ValueError for n above
    MAX_SHUFFLE_SIZE, where that rejection loop could never end.
    """
    if not 1 <= n <= MAX_SHUFFLE_SIZE:
        raise ValueError(f"n must be in [1, {MAX_SHUFFLE_SIZE}], got {n}")
    _check_seed(seed)
    table = _lfsr_word_table()
    state = int(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        k = i + 1
        limit = (2**LFSR_STATE_BITS // k) * k
        state = table[state]
        while state >= limit:
            state = table[state]
        j = state % k
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm)


@dataclass(frozen=True)
class LtfAllocation:
    """Seeded, non-overlapping assignment of tones to TX antennas.

    assignment[k] is the antenna sounding tone k, or -1 where a usable-tone
    mask excluded the tone.
    """

    n_dft: int
    n_t: int
    assignment: np.ndarray
    seed: int

    def tones_for(self, antenna: int) -> np.ndarray:
        return np.nonzero(self.assignment == antenna)[0]

    @property
    def sounded_tones(self) -> np.ndarray:
        return np.nonzero(self.assignment >= 0)[0]


def allocate_ltf(n_dft: int, n_t: int, seed: int,
                 usable_tones=None) -> LtfAllocation:
    """Permute the (usable) tones and split them into n_t contiguous chunks.

    Chunk i goes to antenna i; chunk sizes differ by at most one. Both ends
    of the link reproduce the same allocation from (seed, n_dft, n_t).
    """
    if n_t < 1 or n_dft < 1:
        raise ValueError("n_dft and n_t must be >= 1")
    if usable_tones is None:
        tones = np.arange(n_dft)
    else:
        tones = np.unique(np.asarray(usable_tones, dtype=np.intp))
        if tones.size == 0 or tones[0] < 0 or tones[-1] >= n_dft:
            raise ValueError("usable_tones must be nonempty indices in [0, n_dft)")
    if tones.size < n_t:
        raise ValueError(
            f"{tones.size} usable tones cannot cover {n_t} antennas"
        )
    shuffled = tones[knuth_shuffle(tones.size, seed)]
    assignment = np.full(n_dft, -1, dtype=np.intp)
    for antenna, chunk in enumerate(np.array_split(shuffled, n_t)):
        assignment[chunk] = antenna
    return LtfAllocation(n_dft, n_t, assignment, seed)


def punctured_sound_and_estimate(h: ChannelRealization, alloc: LtfAllocation,
                                 ltf: LtfSequence, snr_db: float | None,
                                 power_mode: str = "uniform",
                                 seed: int = 0) -> np.recarray:
    """Sound each tone from its single allocated antenna and estimate.

    In "boosted" mode the whole transmit power rides on the one active
    antenna (gain n_t), so the estimate noise variance drops by n_t
    compared to "uniform". Returns one record per (sounded tone, RX
    antenna), with fields tone, tx, rx and value, ordered by tone then RX.
    Noise is drawn one sounded-tone vector per RX antenna, in RX order.
    """
    if power_mode not in POWER_MODES:
        raise ValueError(f"power_mode must be {' or '.join(map(repr, POWER_MODES))}, "
                         f"got {power_mode!r}")
    if alloc.n_dft != h.n_dft or alloc.n_t != h.n_t:
        raise ValueError("allocation does not match channel dimensions")
    if len(ltf) != h.n_dft:
        raise ValueError("LTF length does not match channel tone count")
    gain = math.sqrt(h.n_t) if power_mode == "boosted" else 1.0
    tones = alloc.sounded_tones
    txs = alloc.assignment[tones]
    scale = ltf.symbols[tones] * gain
    # rx_vals[i, m]: what RX antenna m receives on the i-th sounded tone
    pairs = np.arange(h.n_r) * h.n_t + txs[:, None]
    rx_vals = h.h_freq[tones[:, None], pairs] * scale[:, None]
    if _noisy(snr_db):
        rng = np.random.default_rng(seed)
        var = noise_variance(snr_db, h.n_dft)
        rx_vals = rx_vals + np.stack(
            [_complex_noise(rng, tones.size, var) for _ in range(h.n_r)], axis=1)
    return np.rec.fromarrays(
        [np.repeat(tones, h.n_r), np.repeat(txs, h.n_r),
         np.tile(np.arange(h.n_r), tones.size), (rx_vals / scale[:, None]).ravel()],
        names="tone,tx,rx,value")


def ndp_airtime(n_t: int, scheme: str, n_kappa: int | None = None,
                n_dft: int | None = None, ltf_duration_us: float = 12.0) -> float:
    """Training airtime in microseconds for one sounding packet.

    Conventional needs n_t LTF symbols; the punctured scheme needs
    ceil(n_kappa / n_dft) of them (at least one). It multiplies in float,
    so an integer duration gives a float and an overflowing product inf.
    """
    if scheme == "conventional":
        return n_t * float(ltf_duration_us)
    if scheme == "punctured":
        if n_kappa is None or n_dft is None:
            raise ValueError("punctured airtime needs n_kappa and n_dft")
        return math.ceil(max(n_kappa, 1) / n_dft) * float(ltf_duration_us)
    raise ValueError(f"scheme must be 'conventional' or 'punctured', got {scheme!r}")

"""Sparse tapped-delay-line MIMO channel generation.

A power-delay profile (delay in ns, power in dB) is binned onto the sample
grid, each binned delay gets one spatially-correlated complex Gaussian
draw per TX/RX pair, and the realization carries three consistent views:
the physical delay taps, the per-tone frequency response (unitary DFT over
the tone axis), and the doubly-transformed delay/space grid that the
recovery pipeline treats as the sparse vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics


class DelaySpreadExceedsDft(ValueError):
    """Binned delay span does not fit inside the transform length."""


def _finite(value, name: str) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(float(value)):
            return float(value)
    except OverflowError:  # an integer too large for a float
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class PdpSpec:
    """Power delay profile: (delay_ns, power_db) taps plus the sample period.

    Construction normalizes total linear power to 1, so generated channels
    have unit average energy per TX/RX pair.
    """

    taps: tuple[tuple[float, float], ...]
    sample_period_ns: float = 50.0

    def __post_init__(self):
        taps = tuple((_finite(d, "delay_ns"), _finite(p, "power_db")) for d, p in self.taps)
        if not taps:
            raise ValueError("PDP needs at least one tap")
        delays = [d for d, _ in taps]
        if any(d < 0 for d in delays):
            raise ValueError("tap delays must be non-negative")
        if any(b < a for a, b in zip(delays, delays[1:])):
            raise ValueError("tap delays must be ascending")
        if any(abs(p) > 300 for _, p in taps):  # keeps the linear total finite, nonzero
            raise ValueError("power_db must be within +/-300 dB")
        if _finite(self.sample_period_ns, "sample_period_ns") <= 0:
            raise ValueError("sample_period_ns must be positive")
        if not math.isfinite(delays[-1] / self.sample_period_ns):  # bin_pdp's int()
            raise ValueError("delay_ns / sample_period_ns must be finite")
        total = sum(10.0 ** (p / 10.0) for _, p in taps)
        shift = 10.0 * math.log10(total)
        object.__setattr__(
            self, "taps", tuple((d, p - shift) for d, p in taps)
        )

    @classmethod
    def default(cls, sample_period_ns: float = 50.0) -> "PdpSpec":
        """Built-in 18-tap profile: 10 ns spacing, 1 dB decay per tap."""
        return cls(
            taps=tuple((10.0 * i, -1.0 * i) for i in range(18)),
            sample_period_ns=sample_period_ns,
        )

    @classmethod
    def from_records(cls, records, sample_period_ns: float) -> "PdpSpec":
        """Build from {delay_ns, power_db} mappings (config files)."""
        taps = tuple((r["delay_ns"], r["power_db"]) for r in records)
        return cls(taps=taps, sample_period_ns=sample_period_ns)


@dataclass(frozen=True)
class SpatialCorrelation:
    """Exponential antenna correlation, R[i, j] = rho**|i - j|."""

    rho_tx: float = 0.0
    rho_rx: float = 0.0

    def __post_init__(self):
        for name, rho in (("rho_tx", self.rho_tx), ("rho_rx", self.rho_rx)):
            if not 0.0 <= rho < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rho}")

    @staticmethod
    def _root(rho: float, n: int) -> np.ndarray:
        corr = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        return np.real(numerics.cholesky(corr.astype(np.complex128)))

    def tx_root(self, n_t: int) -> np.ndarray:
        return self._root(self.rho_tx, n_t)

    def rx_root(self, n_r: int) -> np.ndarray:
        return self._root(self.rho_rx, n_r)


@dataclass(frozen=True)
class ChannelRealization:
    """One static MIMO channel draw.

    Columns run over the flattened (rx, tx) pair index s = rx*n_t + tx (TX
    fastest). h_freq is the unitary DFT of h_time along the tone axis;
    h_2d additionally applies the inverse unitary DFT across the space
    index of every row and is the vector the sparse solvers recover.
    """

    n_dft: int
    n_t: int
    n_r: int
    h_time: np.ndarray
    h_freq: np.ndarray
    h_2d: np.ndarray
    seed: int | None = None

    @classmethod
    def from_2d(cls, n_dft: int, n_t: int, n_r: int, h_2d: np.ndarray,
                seed: int | None = None) -> "ChannelRealization":
        """Rebuild the time and frequency views from the h_2d grid.

        h_time is the forward unitary DFT of h_2d across the space index,
        h_freq the forward unitary DFT of h_time along the tone axis.
        """
        h_2d = np.asarray(h_2d, dtype=np.complex128)
        h_time = np.fft.fft(h_2d, axis=1, norm="ortho")
        h_freq = np.fft.fft(h_time, axis=0, norm="ortho")
        return cls(n_dft, n_t, n_r, h_time, h_freq, h_2d, seed)

    @property
    def n_s(self) -> int:
        return self.n_t * self.n_r


def bin_pdp(pdp: PdpSpec) -> list[tuple[int, float]]:
    """Sum tap powers (linear scale) within each sample-period bin.

    Returns (sample_index, linear_power) pairs, powers summing to 1.
    """
    acc: dict[int, float] = {}
    for delay, power_db in pdp.taps:
        idx = int(delay // pdp.sample_period_ns)
        acc[idx] = acc.get(idx, 0.0) + 10.0 ** (power_db / 10.0)
    return sorted(acc.items())


def generate_channel(pdp: PdpSpec, n_dft: int, n_t: int, n_r: int,
                     corr: SpatialCorrelation | None = None,
                     seed: int = 0) -> ChannelRealization:
    """Draw one channel realization.

    Every binned delay d with power p contributes sqrt(p) * Lrx @ G @ Ltx.T
    at delay row d, where G is i.i.d. unit circular complex Gaussian and
    the L factors are Cholesky roots of the antenna correlation matrices.
    """
    if corr is None:
        corr = SpatialCorrelation()
    bins = bin_pdp(pdp)
    if bins[-1][0] >= n_dft:
        raise DelaySpreadExceedsDft(
            f"binned delay {bins[-1][0]} does not fit in n_dft={n_dft}"
        )
    rng = np.random.default_rng(seed)
    n_s = n_t * n_r
    l_tx = corr.tx_root(n_t)
    l_rx = corr.rx_root(n_r)
    h_time = np.zeros((n_dft, n_s), dtype=np.complex128)
    for d, p in bins:
        g = (rng.standard_normal((n_r, n_t)) +
             1j * rng.standard_normal((n_r, n_t))) / math.sqrt(2.0)
        colored = l_rx @ g @ l_tx.T
        h_time[d, :] = math.sqrt(p) * colored.reshape(-1)
    h_freq = np.fft.fft(h_time, axis=0, norm="ortho")
    h_2d = np.fft.ifft(h_time, axis=1, norm="ortho")  # inverse DFT across space
    return ChannelRealization(n_dft, n_t, n_r, h_time, h_freq, h_2d, seed)


def threshold_taps(h: ChannelRealization, floor_db: float) -> ChannelRealization:
    """Zero every doubly-transformed tap more than floor_db below the peak.

    Acts on h_2d with an amplitude threshold peak * 10**(-floor_db/20) and
    rebuilds the time and frequency views. Returns the input unchanged
    when nothing falls below the floor.
    """
    if floor_db <= 0:
        raise ValueError(f"floor_db must be positive, got {floor_db}")
    peak = float(np.max(np.abs(h.h_2d)))
    if peak == 0.0:
        return h
    # structural zeros are already zero; only live entries can be dropped
    mask = (np.abs(h.h_2d) < peak * 10.0 ** (-floor_db / 20.0)) & (h.h_2d != 0)
    if not mask.any():
        return h
    h_2d = h.h_2d.copy()
    h_2d[mask] = 0.0
    return ChannelRealization.from_2d(h.n_dft, h.n_t, h.n_r, h_2d, h.seed)


def sparsity(v: np.ndarray) -> int:
    """Number of exactly nonzero entries (thresholding is separate)."""
    return int(np.count_nonzero(np.asarray(v)))

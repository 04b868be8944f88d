"""Greedy sparse recovery: CoSaMP and OMP over row-sampled operators.

The solvers work on a MeasurementOperator: a set of rows of the
tone-by-space Kronecker DFT transform, addressed by row index and applied
through FFTs without ever storing the matrix. Because the rows are a mask
on a 2-D DFT, the inner product of two columns depends only on their
delay and space differences, so the operator keeps one Gram table (the
2-D DFT of the mask): the solvers never form a column block. CoSaMP hands
numerics.solve_normal_equations each merged support's Gram matrix and the
precomputed Phi^H y; OMP (Batch-OMP) grows an inverse Cholesky factor one
atom at a time from Gram columns. Each solver's state class (_Cosamp,
_Omp) owns its step, its least squares and its MAC tally; _pursuit runs
the iteration loop they share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import NotPositiveDefinite

ALGORITHMS = ("cosamp", "omp")  # the solver functions of this module
STOP_REASONS = ("converged", "cycled", "i_max", "kappa_reached")

class InsufficientMeasurements(ValueError):
    """Fewer measurement rows than the solver needs (requires 2*kappa)."""


class DegenerateSupport(RuntimeError):
    """Restricted least squares stayed rank deficient after the retry."""


@dataclass(frozen=True)
class RecoveryConfig:
    """Solver knobs: sparsity target, relative residual stop, iteration cap."""

    kappa: int
    tau: float = 1e-6
    i_max: int = 50

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.i_max < 1:
            raise ValueError(f"i_max must be >= 1, got {self.i_max}")


@dataclass
class SparseRecoveryResult:
    x_hat: np.ndarray
    support: np.ndarray
    residual_history: list[float]
    iterations: int
    # Complex MACs in mac_model's textbook dense-Gram cost, not the FFT and
    # Gram-table work done here; a solve the rank test rejects is counted.
    mac_count: int
    converged: bool
    stop_reason: str  # one of STOP_REASONS


class MeasurementOperator:
    """Rows `row_indices` of the unitary kron(F_n_dft, F_n_s) transform.

    Row k*n_s + s, column n*n_s + v holds F_n_dft[k, n] * F_n_s[s, v], as in
    numerics.kron_row. The matrix is never materialized: matvec is a 2-D FFT
    of the (n_dft, n_s) grid followed by a gather of the selected rows,
    rmatvec scatters into that grid and applies the inverse 2-D FFT (numpy's
    unitary transforms), and columns, which the solvers never call,
    evaluates entries in closed form from root-of-unity tables.

    gram(T) == columns(T)^H columns(T) is gathered from a table computed
    once: entry (i, j) is g[(n_j - n_i) mod n_dft, (v_j - v_i) mod n_s] for
    columns i = n_i*n_s + v_i, where g is the unitary 2-D DFT of the row
    mask divided by sqrt(n_dft*n_s).
    """

    def __init__(self, n_dft: int, n_s: int, row_indices):
        rows = np.asarray(row_indices, dtype=np.intp)
        if (rows.ndim != 1 or np.unique(rows).size != rows.size
                or np.any((rows < 0) | (rows >= n_dft * n_s))):
            raise ValueError(f"kron row indices must be 1-D, unique and in "
                             f"[0, {n_dft * n_s}) for dims ({n_dft}, {n_s})")
        self.dims = (n_dft, n_s)
        self.row_indices = rows
        mask = np.zeros(self.dims, dtype=np.complex128)
        mask.flat[rows] = 1.0
        # Tiled twice along each axis, so a column pair's cell is the plain
        # difference of their grid coordinates plus a fixed offset (no mod).
        g = np.fft.fft2(mask, norm="ortho") / math.sqrt(n_dft * n_s)
        self._gram_grid = np.tile(g, (2, 2))
        self._gram_table = self._gram_grid.ravel()
        self._gram_offset = n_dft * 2 * n_s + n_s

    @classmethod
    def from_kron_rows(cls, n_dft: int, n_s: int, row_indices) -> "MeasurementOperator":
        return cls(n_dft, n_s, row_indices)

    @property
    def shape(self) -> tuple[int, int]:
        return self.row_indices.size, math.prod(self.dims)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        # The cast keeps complex64 input from a single-precision transform.
        grid = np.reshape(np.asarray(x, dtype=np.complex128), self.dims)
        return np.fft.fft2(grid, norm="ortho").ravel()[self.row_indices]

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """Adjoint application: Phi^H r."""
        grid = np.zeros(self.dims, dtype=np.complex128)
        grid.flat[self.row_indices] = r
        return np.fft.ifft2(grid, norm="ortho").ravel()

    def columns(self, idx) -> np.ndarray:
        n_dft, n_s = self.dims
        tone, space = np.divmod(self.row_indices, n_s)
        delay, lag = np.divmod(np.asarray(idx, dtype=np.intp), n_s)
        # F_n[k, m] == F_n[1, (k*m) mod n]; for n == 1 the table is row 0.
        roots_dft, roots_s = (numerics.dft_row(n, 1 % n) for n in self.dims)
        return (roots_dft[np.multiply.outer(tone, delay) % n_dft]
                * roots_s[np.multiply.outer(space, lag) % n_s])

    def gram(self, idx) -> np.ndarray:
        """columns(idx)^H columns(idx), gathered from the Gram table."""
        idx = np.asarray(idx, dtype=np.intp)
        coord = idx + idx // self.dims[1] * self.dims[1]  # delay*2*n_s + space
        return self._gram_table.take((coord + self._gram_offset) - coord[:, None])

    def gram_column(self, p: int) -> np.ndarray:
        """gram(range(N))[:, p], read as one reversed 2-D slice of the tiled table."""
        (n_dft, n_s), (n_p, v_p) = self.dims, divmod(int(p), self.dims[1])
        return self._gram_grid[n_p + n_dft:n_p:-1, v_p + n_s:v_p:-1].ravel()


def support_select(u: np.ndarray, count: int) -> np.ndarray:
    """Indices of the `count` largest-magnitude entries, sorted ascending.

    Ties break toward the lowest index so results are reproducible: the
    same set as the first `count` of a stable argsort of -|u|, found by a
    partition instead of a full sort.
    """
    mags = np.abs(np.asarray(u))
    n = mags.shape[0]
    if not 0 <= count <= n:
        raise ValueError(f"count {count} outside [0, {n}] for vector length {n}")
    if count == 0:
        return np.array([], dtype=np.intp)
    cut = np.partition(mags, n - count)[n - count]  # count-th largest magnitude
    above = np.flatnonzero(mags > cut)
    ties = np.flatnonzero(mags == cut)[:count - above.size]
    return np.sort(np.concatenate((above, ties)))


def mac_model(n: int, n_kappa: int, kappa: int) -> int:
    """Closed-form complex-MAC estimate for one textbook CoSaMP iteration.

    Proxy correlation N*N_kappa, residual update N_kappa*(2k), Gram matrix
    N_kappa*(2k)^2, Cholesky (2k)^3: the dense-matrix cost model the solver
    tally also books, not the FFT and Gram-table work done here.
    """
    if min(n, n_kappa, kappa) < 1:
        raise ValueError("n, n_kappa and kappa must all be positive")
    two_k = 2 * kappa
    return n * n_kappa + n_kappa * two_k + n_kappa * two_k**2 + two_k**3


class _ColumnSubset:
    """Columns t_set of phi as the implicit matrix that
    numerics.solve_normal_equations takes: its normal equations against the
    measurement y are gathered from the operator's Gram table and from
    phi_h_y = Phi^H y (computed once per solve), so no n_kappa x |t_set|
    block is formed."""

    __slots__ = ("phi", "t_set", "y", "phi_h_y")

    def __init__(self, phi, t_set, y, phi_h_y):
        self.phi, self.t_set, self.y, self.phi_h_y = phi, t_set, y, phi_h_y

    @property
    def shape(self) -> tuple[int, int]:
        return self.phi.shape[0], self.t_set.size

    def normal_equations(self, y):
        if y is not self.y:
            raise ValueError("the right-hand side is known only for the measurement y")
        return self.phi.gram(self.t_set), self.phi_h_y[self.t_set]


def _lstsq_macs(n_kappa: int, m: int) -> int:
    """Textbook cost of least squares on m columns: Gram, Phi^H y, Cholesky, 2 solves."""
    return n_kappa * m * m + n_kappa * m + math.ceil(m**3 / 3) + m * m


class _Cosamp:
    """CoSaMP's run state: Phi^H y, the last residual and the proxy, its FFT correlation."""

    stops_at_kappa = False

    def __init__(self, phi, y, y_norm, cfg):
        self.phi, self.y, self.y_norm, self.kappa = phi, y, y_norm, cfg.kappa
        self.phi_h_y = self.proxy = phi.rmatvec(y)  # the first residual is y itself
        self.r, self.macs = None, 0

    def step(self, support):
        """Merged-support least squares with the halved-candidate retry, then
        prune back to the kappa largest coefficients.

        A merged set with more columns than measurement rows is rank deficient
        by construction and goes straight to the retry; after it the set holds
        at most 2*kappa <= n_kappa columns.
        """
        if self.r is not None:
            self.proxy = self.phi.rmatvec(self.r)
        n_kappa, last = self.phi.shape[0], None
        for n_cand in (2 * self.kappa, self.kappa):
            omega = support_select(self.proxy, min(n_cand, self.proxy.shape[0]))
            t_set = np.union1d(support, omega).astype(np.intp)
            if t_set.size <= n_kappa:
                self.macs += _lstsq_macs(n_kappa, t_set.size)
                try:
                    b = numerics.solve_normal_equations(
                        _ColumnSubset(self.phi, t_set, self.y, self.phi_h_y), self.y)
                    break
                except NotPositiveDefinite as exc:
                    last = exc
        else:
            raise DegenerateSupport(
                f"rank-deficient support of size {t_set.size} after retry") from last
        keep = support_select(b, min(self.kappa, t_set.size))
        return t_set[keep], b[keep]

    def residual(self, x_hat, final=False) -> tuple[float, bool]:
        self.r = self.y - self.phi.matvec(x_hat)
        return float(np.linalg.norm(self.r)) / self.y_norm, True


class _Omp:
    """Batch-OMP's run state (Rubinstein, Zibulevsky & Elad, 2008).

    The run allocates its arrays once and updates them in place. In atom
    insertion order: the atoms T, L^-1 (the inverse Cholesky factor of the
    support's Gram matrix), the Gram columns G[:, t] and z = L^-1 alpha0[T].
    Over all N columns: alpha0 = Phi^H y, the proxy alpha0 - G[:, T] b and
    its magnitudes. Beside them, the running ||z||^2 and the Gram trace.
    Each iteration allocates only the Gram column and vectors of length m,
    the support size.
    """

    stops_at_kappa = True

    def __init__(self, phi, y, y_norm, cfg):
        self.phi, self.y, self.y_norm, self.tau = phi, y, y_norm, cfg.tau
        self.alpha0 = phi.rmatvec(y)
        self.proxy, self.mags = self.alpha0.copy(), np.empty(self.alpha0.shape)
        k = min(cfg.kappa, cfg.i_max)  # one atom per iteration at most
        self.atoms, self.z = np.empty(k, np.intp), np.empty(k, np.complex128)
        self.cols = np.empty((k, phi.shape[1]), dtype=np.complex128)
        self.inv = np.zeros((k, k), dtype=np.complex128)  # zero above the diagonal
        self.m, self.trace, self.z_sq, self.macs = 0, 0.0, 0.0, 0

    def step(self, support):
        """Add the strongest unused atom (the next one if the rank test fails); None if none."""
        mags = np.abs(self.proxy, out=self.mags)
        mags[support] = -1.0
        m = self.m
        for attempt in range(2):
            p = int(mags.argmax())
            if mags[p] <= 0.0:
                if attempt:
                    raise DegenerateSupport("no usable atom left after retry")
                return None
            self.macs += _lstsq_macs(self.phi.shape[0], m + 1)
            col = self.phi.gram_column(p)
            l = self.inv[:m, :m] @ col[self.atoms[:m]]
            d2 = col[p].real - np.vdot(l, l).real  # the squared Cholesky pivot of p
            trace = self.trace + col[p].real
            eps = 1e-12 * trace / (m + 1)  # numerics.cholesky's rank tolerance
            if d2 > eps:
                break
            cause = NotPositiveDefinite(f"pivot {d2:.3e} at index {m} (tolerance {eps:.3e})")
            if attempt:
                raise DegenerateSupport(
                    f"rank-deficient support of size {m + 1} after retry") from cause
            mags[p] = -1.0
        d = math.sqrt(d2)
        inv = self.inv[:m + 1, :m + 1]
        np.matmul(l.conj(), inv[:m, :m], out=inv[m, :m])
        inv[m, :m] /= -d  # the new row of L^-1: [-l^H L^-1, 1] / d
        inv[m, m] = 1.0 / d
        z_m = self.z[m] = (self.alpha0[p] - np.vdot(l, self.z[:m])) / d
        self.z_sq += z_m.real**2 + z_m.imag**2
        self.atoms[m], self.cols[m], self.m, self.trace = p, col, m + 1, trace
        b = (self.z[:m + 1].conj() @ inv).conj()  # (L^-1)^H z
        np.subtract(self.alpha0, b @ self.cols[:m + 1], out=self.proxy)
        order = self.atoms[:m + 1].argsort()
        return self.atoms[order], b[order]

    def residual(self, x_hat, final=False) -> tuple[float, bool]:
        rel = math.sqrt(max(1.0 - self.z_sq / self.y_norm**2, 0.0))
        if final or rel <= max(10 * self.tau, 1e-6):  # the estimate is about 1e-8 off
            return float(np.linalg.norm(self.y - self.phi.matvec(x_hat))) / self.y_norm, True
        return rel, False


def _pursuit(phi: MeasurementOperator, y: np.ndarray, cfg: RecoveryConfig,
             solver) -> SparseRecoveryResult:
    """Input checks, residual loop and result shared by cosamp and omp.

    Each iteration the `solver` state (_Cosamp or _Omp) correlates the
    residual against the operator and returns the new support and its
    least-squares coefficients (or None to keep the current estimate),
    then the relative residual of x_hat: exact, or an estimate from OMP's
    factor away from cfg.tau (the last entry is exact). The state books
    its least squares in its MAC tally `macs`, and this loop adds the
    proxy and residual. Stops when the residual drops to cfg.tau
    ("converged"), once the support holds cfg.kappa atoms if the state
    class sets stops_at_kappa ("kappa_reached"), when an iterate repeats
    ("cycled"), or after cfg.i_max iterations ("i_max").

    The next iterate is a function of the current (support, coefficients)
    alone, so from a repeat on the run is periodic. A cycled run returns
    the iterate the period puts at iteration cfg.i_max: the same x_hat,
    support and converged flag as running out the cap, from fewer
    iterations. Only the executed iterations are in the residual history
    and the MAC tally.
    """
    n_kappa, n = phi.shape
    if 2 * cfg.kappa > n_kappa:
        raise InsufficientMeasurements(
            f"need at least 2*kappa={2 * cfg.kappa} rows, operator has {n_kappa}"
        )
    y = np.asarray(y, dtype=np.complex128)
    if y.shape[0] != n_kappa:
        raise ValueError(f"y has length {y.shape[0]}, operator has {n_kappa} rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite (it holds NaN or inf)")
    y_norm = float(np.linalg.norm(y))
    x_hat = np.zeros(n, dtype=np.complex128)
    support = np.array([], dtype=np.intp)
    b = np.array([], dtype=np.complex128)
    if y_norm == 0.0:
        return SparseRecoveryResult(x_hat, support, [0.0], 0, 0, True, "converged")

    state = solver(phi, y, y_norm, cfg)
    rel, exact = 1.0, True
    history: list[float] = []
    iterates: list[tuple[np.ndarray, np.ndarray]] = []  # (support, b) per iteration
    seen: dict[bytes, int] = {}  # iterate bytes -> its first iteration index
    stop_reason = None
    for it in range(cfg.i_max):
        state.macs += n * n_kappa
        picked = state.step(support)
        if picked is not None:
            support, b = picked
            x_hat = np.zeros(n, dtype=np.complex128)
            x_hat[support] = b
            state.macs += n_kappa * support.size
            rel, exact = state.residual(x_hat)
        if rel <= cfg.tau:
            stop_reason = "converged"
        elif solver.stops_at_kappa and support.size >= cfg.kappa:
            stop_reason = "kappa_reached"  # no further progress possible
        elif seen.setdefault(key := support.tobytes() + b.tobytes(), it) < it:
            stop_reason = "cycled"
        if not exact and (stop_reason or it == cfg.i_max - 1):  # the last entry is exact
            rel = state.residual(x_hat, final=True)[0]
        history.append(rel)
        if stop_reason:
            break
        iterates.append((support, b))
    if stop_reason == "cycled":
        support, b = iterates[(first := seen[key]) + (cfg.i_max - 1 - first) % (it - first)]
        x_hat.fill(0)
        x_hat[support] = b

    return SparseRecoveryResult(
        x_hat=x_hat,
        support=support,
        residual_history=history,
        iterations=len(history),
        mac_count=state.macs,
        converged=stop_reason == "converged",
        stop_reason=stop_reason or "i_max",
    )


def cosamp(phi: MeasurementOperator, y: np.ndarray,
           cfg: RecoveryConfig) -> SparseRecoveryResult:
    """Compressive sampling matching pursuit.

    Per iteration: correlate the residual against the operator, merge the
    2*kappa strongest candidates into the running support, least-squares
    fit on the merged set, prune back to the kappa largest coefficients,
    and update the residual. Stops when the relative residual drops to
    cfg.tau, after cfg.i_max iterations, or as soon as an iterate repeats
    an earlier one, returning what the cap would have returned (see
    _pursuit). On noisy, quantized or thresholded data it seldom
    converges but cycles within a few iterations.
    """
    return _pursuit(phi, y, cfg, _Cosamp)


def omp(phi: MeasurementOperator, y: np.ndarray,
        cfg: RecoveryConfig) -> SparseRecoveryResult:
    """Orthogonal matching pursuit, computed as Batch-OMP.

    One support index per iteration (the strongest correlation not yet
    selected), no pruning, least squares over the accumulated support,
    same stopping rules as cosamp. Stops early once the support holds
    cfg.kappa atoms, since the estimate cannot grow further. An iteration
    that finds no correlating atom keeps the previous iterate, so the run
    ends as cycled.

    The least squares grows an inverse Cholesky factor one atom at a time
    (see _Omp); residual history entries above max(10 * cfg.tau, 1e-6) come
    from it, accurate to about 1e-8, and the others and the last are exact.
    """
    return _pursuit(phi, y, cfg, _Omp)

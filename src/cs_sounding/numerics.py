"""Complex linear algebra kernels that numpy lacks.

Explicit DFT matrices and single rows of the tone-by-space Kronecker
transform (an independent reference path for numpy's unitary FFTs), and
the least squares used inside the greedy recovery solvers: `solve_gram`
takes a Gram matrix and right-hand side, checks the rank with a LAPACK
Cholesky factorization and a tolerance on its pivots, then solves it.
Above GRAM_FACTOR_REUSE_ABOVE columns it reuses that factor L for two
blocked substitutions (L, then L^H); at or below it one LAPACK LU solve is
faster and stays.
`solve_normal_equations` (CoSaMP's path) gets the Gram system of a column
block, explicit or implicit, and hands it to `solve_gram`. The DFT rows
use the unitary convention (1/sqrt(N)), as numpy's norm="ortho" FFTs do,
so Parseval holds and Kronecker rows are unit norm.
"""

from __future__ import annotations

import math

import numpy as np


# Gram size above which solve_gram substitutes with the Cholesky factor
# instead of an LU solve. Random complex Gram matrices, one BLAS thread on a
# 2-core x86-64 host, ms per solve, LU vs two substitutions: 96 0.18 vs
# 0.24, 128 0.29 vs 0.27, 150 0.38 vs 0.25, 420 8.6 vs 0.90. Keep it at 105
# or more: threshold_4x2 merges at most 3*kappa = 105 columns, so its
# outputs stay those of the LU solve.
GRAM_FACTOR_REUSE_ABOVE = 128
_SUBSTITUTION_LEAF = 48  # widest triangle handed to np.linalg.solve


class NotPositiveDefinite(ArithmeticError):
    """Cholesky pivot fell below the rank tolerance: the Gram matrix is
    (numerically) rank deficient."""


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix: F[k, m] = exp(-2j*pi*k*m/n) / sqrt(n).

    F is symmetric and F @ F.conj().T == I.
    """
    if n < 1:
        raise ValueError(f"DFT size must be >= 1, got {n}")
    km = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * km / n) / math.sqrt(n)


def dft_row(n: int, k: int) -> np.ndarray:
    """Row k of dft_matrix(n), computed without building the full matrix.

    Bit-identical to dft_matrix(n)[k] (same integer products, same float
    expression), so kron_row reproduces the explicit matrices exactly.
    """
    if not 0 <= k < n:
        raise IndexError(f"row {k} out of range for size {n}")
    return np.exp(-2j * np.pi * (k * np.arange(n)) / n) / math.sqrt(n)


def kron_row(model_dims: tuple[int, int], row_index: int) -> np.ndarray:
    """One row of kron(F_a, F_b) for unitary DFT factors of sizes (a, b).

    Row k*b + s has entry F_a[k, n] * F_b[s, v] at column n*b + v. Built from
    explicit DFT rows: the reference the FFT-based operator is checked against.
    """
    a, b = model_dims
    total = a * b
    if not 0 <= row_index < total:
        raise IndexError(f"row {row_index} out of range for dims {model_dims}")
    k, s = divmod(row_index, b)
    return np.multiply.outer(dft_row(a, k), dft_row(b, s)).ravel()


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.conj().T == a for Hermitian PD input.

    LAPACK factorization of the lower triangle; the diagonal of L is real
    positive. Raises NotPositiveDefinite when LAPACK fails or a squared
    pivot real(L[j, j])**2 is not above 1e-12 * trace/n (NaN included),
    which is how rank-deficient Gram matrices surface to the recovery
    solvers. An empty matrix raises ValueError.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("cannot factor an empty matrix")
    eps = 1e-12 * float(np.real(np.trace(a))) / a.shape[0]
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"LAPACK Cholesky failed: {exc}") from exc
    pivots = np.real(np.diagonal(low)) ** 2
    small = np.flatnonzero(~(pivots > eps))
    if small.size:
        j = int(small[0])
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at index {j} (tolerance {eps:.3e})"
        )
    return low


def solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ b == rhs for a Hermitian positive definite Gram matrix.

    Checks the rank with `cholesky` first, so a rank-deficient column set
    raises NotPositiveDefinite. Above GRAM_FACTOR_REUSE_ABOVE columns it
    then solves L z == rhs and L^H b == z with that factor; at or below it
    one LAPACK LU solve of the Gram system is faster than the substitutions.
    """
    gram = np.asarray(gram, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if gram.ndim != 2 or gram.shape != (rhs.shape[0],) * 2:
        raise ValueError(f"shape mismatch: gram {gram.shape} vs rhs {rhs.shape}")
    low = cholesky(gram)
    if gram.shape[0] <= GRAM_FACTOR_REUSE_ABOVE:
        return np.linalg.solve(gram, rhs)
    return _substitute(low, _substitute(low, rhs, adjoint=False), adjoint=True)


def _substitute(low: np.ndarray, rhs: np.ndarray, adjoint: bool) -> np.ndarray:
    """Solve low @ x == rhs (low^H @ x == rhs when adjoint) for lower
    triangular low: halve the triangle, solve the leading half (the
    trailing one for the upper triangular low^H), subtract its product
    with the off-diagonal block, and recurse down to leaves that
    np.linalg.solve takes."""
    n = low.shape[0]
    if n <= _SUBSTITUTION_LEAF:
        return np.linalg.solve(low.conj().T if adjoint else low, rhs)
    h = n // 2
    off = low[h:, :h]
    if adjoint:
        x2 = _substitute(low[h:, h:], rhs[h:], adjoint)
        x1 = _substitute(low[:h, :h], rhs[:h] - (off.T @ x2.conj()).conj(), adjoint)
    else:
        x1 = _substitute(low[:h, :h], rhs[:h], adjoint)
        x2 = _substitute(low[h:, h:], rhs[h:] - off @ x1, adjoint)
    return np.concatenate((x1, x2))


def solve_normal_equations(phi_t, y: np.ndarray) -> np.ndarray:
    """Least-squares solution of phi_t @ b ~= y via the normal equations.

    phi_t is an explicit matrix, or an implicit one that has `shape` and
    forms its own normal equations: `normal_equations(y)` returns
    (phi_t^H phi_t, phi_t^H y) without building phi_t (the recovery solvers
    pass columns of a MeasurementOperator this way). Either way solve_gram
    solves them, so rank-deficient column sets raise NotPositiveDefinite.
    Never builds an explicit pseudo-inverse.
    """
    implicit = hasattr(phi_t, "normal_equations")
    if not implicit:
        phi_t = np.asarray(phi_t, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128)
    if len(phi_t.shape) != 2 or phi_t.shape[0] != y.shape[0]:
        raise ValueError(
            f"shape mismatch: phi_t {phi_t.shape} vs y {y.shape}"
        )
    if phi_t.shape[1] > phi_t.shape[0]:
        raise ValueError(
            f"underdetermined system: {phi_t.shape[1]} columns > {phi_t.shape[0]} rows"
        )
    if implicit:
        return solve_gram(*phi_t.normal_equations(y))
    phi_h = phi_t.conj().T
    return solve_gram(phi_h @ phi_t, phi_h @ y)

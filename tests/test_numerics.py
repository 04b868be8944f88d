"""Tests for the complex linear algebra and transform kernels.

Oracles are kept independent of the implementation: dense matrix products
for the FFTs (numpy's, as the measurement operator applies them),
reconstruction for the factorization, and an explicit Gram-inverse
pseudo-inverse for least squares.
"""

import numpy as np
import pytest

from cs_sounding import numerics as nm
from cs_sounding.channel import ChannelRealization
from cs_sounding.numerics import NotPositiveDefinite
from cs_sounding.sparse_recovery import MeasurementOperator


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDftMatrix:
    def test_size_one_is_identity(self):
        np.testing.assert_array_equal(nm.dft_matrix(1), np.array([[1.0 + 0j]]))

    def test_size_two_analytic(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(nm.dft_matrix(2), expected, atol=1e-15)

    def test_unitary_n8(self):
        f = nm.dft_matrix(8)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 16, 31, 64])
    def test_unitary_dense_check(self, n):
        f = nm.dft_matrix(n)
        assert np.max(np.abs(f.conj().T @ f - np.eye(n))) < 1e-12

    def test_symmetric(self):
        f = nm.dft_matrix(12)
        np.testing.assert_array_equal(f, f.T)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            nm.dft_matrix(0)


def column_fft(v):
    """The frequency view that ChannelRealization.from_2d builds for a single
    space column, where the space-axis transform is the identity."""
    return ChannelRealization.from_2d(len(v), 1, 1, np.asarray(v)[:, None]).h_freq[:, 0]


class TestFft:
    """The unitary transform along the tone axis that builds the channel's
    frequency view, one column at a time."""

    def test_zeros(self):
        np.testing.assert_array_equal(column_fft(np.zeros(8)), np.zeros(8))

    def test_unit_impulse_is_flat(self):
        out = column_fft(np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-15)

    def test_matches_dense_dft_n256(self):
        rng = np.random.default_rng(11)
        v = random_complex(rng, 256)
        dense = nm.dft_matrix(256) @ v
        err = np.linalg.norm(column_fft(v) - dense) / np.linalg.norm(dense)
        assert err < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 64])
    def test_matches_dense_any_size(self, n):
        rng = np.random.default_rng(n)
        v = random_complex(rng, n)
        np.testing.assert_allclose(column_fft(v), nm.dft_matrix(n) @ v, atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        v = random_complex(rng, 128)
        back = nm.dft_matrix(128).conj().T @ column_fft(v)
        assert np.linalg.norm(back - v) / np.linalg.norm(v) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(4)
        v = random_complex(rng, 64)
        assert abs(np.linalg.norm(column_fft(v)) - np.linalg.norm(v)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a, b = random_complex(rng, 32), random_complex(rng, 32)
        lhs = column_fft(2.5 * a + 1j * b)
        rhs = 2.5 * column_fft(a) + 1j * column_fft(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestFft2d:
    """The 2-D FFTs of a MeasurementOperator that selects every row, in
    natural order: matvec is F X F and rmatvec is F^H Y F^H."""

    @staticmethod
    def full(n, s):
        return MeasurementOperator(n, s, np.arange(n * s))

    def test_one_by_one(self):
        c = np.array([2.0 - 1.0j])
        op = self.full(1, 1)
        np.testing.assert_array_equal(op.matvec(c), c)
        np.testing.assert_array_equal(op.rmatvec(c), c)

    def test_roundtrip_8x4(self):
        rng = np.random.default_rng(6)
        x = random_complex(rng, 8 * 4)
        op = self.full(8, 4)
        err = np.max(np.abs(op.rmatvec(op.matvec(x)) - x))
        assert err < 1e-10

    def test_matches_two_dense_matmuls_16x4(self):
        rng = np.random.default_rng(7)
        x = random_complex(rng, 16, 4)
        dense = nm.dft_matrix(16) @ x @ nm.dft_matrix(4)
        np.testing.assert_allclose(self.full(16, 4).matvec(x.ravel()), dense.ravel(),
                                   atol=1e-12)

    def test_ifft2d_matches_dense(self):
        rng = np.random.default_rng(8)
        x = random_complex(rng, 8, 8)
        f = nm.dft_matrix(8)
        dense = f.conj().T @ x @ f.conj().T
        np.testing.assert_allclose(self.full(8, 8).rmatvec(x.ravel()), dense.ravel(),
                                   atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.complex64, np.float64, np.int64])
    def test_double_precision_output(self, dtype):
        op = self.full(8, 2)
        x = np.arange(16).astype(dtype)
        assert op.matvec(x).dtype == np.complex128
        assert op.rmatvec(x).dtype == np.complex128
        dense = nm.dft_matrix(8) @ x.reshape(8, 2) @ nm.dft_matrix(2)
        np.testing.assert_allclose(op.matvec(x), dense.ravel(), atol=1e-12)


class TestKronRow:
    def test_one_by_one(self):
        np.testing.assert_array_equal(nm.kron_row((1, 1), 0), np.array([1.0 + 0j]))

    @pytest.mark.parametrize("dims", [(4, 2), (8, 4)])
    def test_all_rows_match_dense_kron(self, dims):
        a, b = dims
        dense = np.kron(nm.dft_matrix(a), nm.dft_matrix(b))
        rows = np.vstack([nm.kron_row(dims, i) for i in range(a * b)])
        np.testing.assert_array_equal(rows, dense)

    @pytest.mark.parametrize("dims", [(4, 2), (8, 4)])
    def test_rows_unit_norm(self, dims):
        for i in range(dims[0] * dims[1]):
            assert abs(np.linalg.norm(nm.kron_row(dims, i)) - 1.0) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            nm.kron_row((4, 2), 8)
        with pytest.raises(IndexError):
            nm.kron_row((4, 2), -1)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(
            nm.cholesky(np.eye(4, dtype=complex)), np.eye(4, dtype=complex)
        )

    def test_diagonal(self):
        low = nm.cholesky(np.diag([4.0, 9.0]).astype(complex))
        np.testing.assert_allclose(low, np.diag([2.0, 3.0]), atol=1e-15)

    def test_reconstruction_random_16(self):
        rng = np.random.default_rng(9)
        b = random_complex(rng, 16, 16)
        a = b.conj().T @ b + np.eye(16)
        low = nm.cholesky(a)
        rel = np.linalg.norm(low @ low.conj().T - a) / np.linalg.norm(a)
        assert rel < 1e-9
        assert np.all(np.tril(low) == low)
        assert np.all(np.diag(low).real > 0)
        assert np.all(np.diag(low).imag == 0)

    def test_rank_deficient_raises(self):
        v = np.array([1.0, 2.0, 3.0 + 1.0j])
        a = np.outer(v, v.conj())  # rank one
        with pytest.raises(NotPositiveDefinite):
            nm.cholesky(a)

    def test_zero_matrix_raises(self):
        with pytest.raises(NotPositiveDefinite):
            nm.cholesky(np.zeros((3, 3), dtype=complex))

    def test_nan_entry_raises(self):
        # LAPACK returns a factor whose rows from 2 on are NaN instead of
        # failing; the trace, and so the tolerance, stays finite.
        a = np.eye(4, dtype=complex)
        a[2, 1] = a[1, 2] = np.nan
        with pytest.raises(NotPositiveDefinite, match="at index 2 "):
            nm.cholesky(a)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nm.cholesky(np.zeros((0, 0), dtype=complex))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        b = random_complex(rng, 8, 8)
        a = b.conj().T @ b + np.eye(8)
        np.testing.assert_array_equal(nm.cholesky(a), nm.cholesky(a.copy()))


class TestSolveNormalEquations:
    def test_identity_operator(self):
        rng = np.random.default_rng(12)
        y = random_complex(rng, 5)
        np.testing.assert_allclose(
            nm.solve_normal_equations(np.eye(5, dtype=complex), y), y, atol=1e-12
        )

    def test_consistent_system(self):
        rng = np.random.default_rng(13)
        phi = random_complex(rng, 10, 4)
        x0 = random_complex(rng, 4)
        b = nm.solve_normal_equations(phi, phi @ x0)
        assert np.linalg.norm(b - x0) < 1e-9

    def test_overdetermined_matches_gram_inverse_oracle(self):
        rng = np.random.default_rng(14)
        phi = random_complex(rng, 8, 3)
        y = random_complex(rng, 8)
        # explicit pseudo-inverse through the Gram inverse
        gram = phi.conj().T @ phi
        oracle = np.linalg.inv(gram) @ (phi.conj().T @ y)
        b = nm.solve_normal_equations(phi, y)
        assert np.linalg.norm(b - oracle) < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(15)
        phi = random_complex(rng, 20, 6)
        y = random_complex(rng, 20)
        b = nm.solve_normal_equations(phi, y)
        resid = y - phi @ b
        assert np.linalg.norm(phi.conj().T @ resid) <= 1e-8 * np.linalg.norm(y)

    def test_matches_numpy_pinv_on_random_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            phi = random_complex(rng, 12, 5)
            y = random_complex(rng, 12)
            b = nm.solve_normal_equations(phi, y)
            assert np.linalg.norm(b - np.linalg.pinv(phi) @ y) < 1e-8

    def test_rank_deficient_propagates(self):
        phi = np.ones((6, 2), dtype=complex)  # duplicated column
        with pytest.raises(NotPositiveDefinite):
            nm.solve_normal_equations(phi, np.ones(6, dtype=complex))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            nm.solve_normal_equations(np.ones((2, 4), dtype=complex), np.ones(2))

    def test_implicit_block_matches_explicit(self):
        rng = np.random.default_rng(18)
        phi = random_complex(rng, 12, 5)
        y = random_complex(rng, 12)
        np.testing.assert_allclose(nm.solve_normal_equations(ImplicitBlock(phi), y),
                                   nm.solve_normal_equations(phi, y), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape, n_y", [((2, 4), 2), ((6, 2), 5)])
    def test_implicit_block_checked_like_explicit(self, shape, n_y):
        with pytest.raises(ValueError):
            nm.solve_normal_equations(ImplicitBlock(np.ones(shape, dtype=complex)),
                                      np.ones(n_y, dtype=complex))

    def test_implicit_rank_deficient_propagates(self):
        phi = ImplicitBlock(np.ones((6, 2), dtype=complex))  # duplicated column
        with pytest.raises(NotPositiveDefinite):
            nm.solve_normal_equations(phi, np.ones(6, dtype=complex))


class ImplicitBlock:
    """A column block that only hands out its normal equations."""

    def __init__(self, matrix):
        self._matrix = matrix
        self.shape = matrix.shape

    def normal_equations(self, y):
        phi_h = self._matrix.conj().T
        return phi_h @ self._matrix, phi_h @ y



class TestSolveGram:
    def test_matches_solve_normal_equations(self):
        rng = np.random.default_rng(17)
        phi = random_complex(rng, 12, 5)
        y = random_complex(rng, 12)
        b = nm.solve_gram(phi.conj().T @ phi, phi.conj().T @ y)
        np.testing.assert_allclose(b, nm.solve_normal_equations(phi, y), rtol=0, atol=1e-12)

    def test_rank_deficient_raises(self):
        phi = np.ones((6, 2), dtype=complex)  # duplicated column
        with pytest.raises(NotPositiveDefinite):
            nm.solve_gram(phi.conj().T @ phi, phi.conj().T @ np.ones(6))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nm.solve_gram(np.eye(3), np.ones(2))

    @staticmethod
    def _gram_system(n):
        """A^H A and A^H y for a seeded 2n x n complex Gaussian A."""
        rng = np.random.default_rng(29 + n)
        a = random_complex(rng, 2 * n, n)
        return a.conj().T @ a, a.conj().T @ random_complex(rng, 2 * n)

    @pytest.mark.parametrize("n", [1, 48, 49, 105, 128, 129, 200, 420])
    def test_solves_both_sides_of_the_cutoff(self, n):
        gram, rhs = self._gram_system(n)
        b = nm.solve_gram(gram, rhs)
        assert np.linalg.norm(gram @ b - rhs) <= 1e-10 * np.linalg.norm(rhs)
        ref = np.linalg.solve(gram, rhs)
        assert np.linalg.norm(b - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("above", [False, True])
    def test_factor_reused_only_above_the_cutoff(self, monkeypatch, above):
        n = nm.GRAM_FACTOR_REUSE_ABOVE + above
        gram, rhs = self._gram_system(n)
        widths, solve = [], np.linalg.solve

        def spy(a, b):
            widths.append(a.shape[-1])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        nm.solve_gram(gram, rhs)
        if above:
            assert widths and max(widths) <= nm._SUBSTITUTION_LEAF
        else:
            assert widths == [n]

    def test_near_duplicate_column_names_its_pivot(self):
        # Column 150 repeats column 30 up to a 3e-7 perturbation: its squared
        # pivot (~5e-11) is positive but below the tolerance (~8e-10), so
        # the rank test, not LAPACK, rejects it and names the index.
        rng = np.random.default_rng(5)
        a = random_complex(rng, 400, 200)
        a[:, 150] = a[:, 30] + 3e-7 * random_complex(rng, 400)
        with pytest.raises(NotPositiveDefinite, match=r"at index 150 "):
            nm.solve_gram(a.conj().T @ a, np.ones(200))

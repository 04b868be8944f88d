"""Tests for the greedy recovery solvers and the measurement operator."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cs_sounding import numerics as nm
from cs_sounding import pipeline
from cs_sounding import sparse_recovery as sr
from cs_sounding.config import load_config
from cs_sounding.sparse_recovery import (
    STOP_REASONS,
    DegenerateSupport,
    InsufficientMeasurements,
    MeasurementOperator,
    RecoveryConfig,
    cosamp,
    mac_model,
    omp,
    support_select,
)
from cs_sounding.sparse_recovery import _ColumnSubset, _Cosamp, _Omp
from cs_sounding.numerics import NotPositiveDefinite


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class DenseOperator:
    """Explicit-matrix operator with MeasurementOperator's solver interface.

    The dense oracle for the sampled Kronecker operator, and the operator
    of the solver tests that need generic matrices (duplicate columns,
    random Gaussian entries, an orthogonal target).
    """

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.shape = self.matrix.shape

    def matvec(self, x):
        return self.matrix @ x

    def rmatvec(self, r):
        return self.matrix.conj().T @ r

    def columns(self, idx):
        return self.matrix[:, idx]

    def gram(self, idx):
        cols = self.columns(idx)
        return cols.conj().T @ cols

    def gram_column(self, p):
        return self.matrix.conj().T @ self.matrix[:, p]


def planted_instance(rng, n, n_kappa, kappa, kron_dims=None):
    """Sparse ground truth measured by random rows of a unitary transform
    (the 1-D DFT of size n unless kron_dims names a Kronecker grid)."""
    x0 = np.zeros(n, dtype=complex)
    supp = rng.choice(n, kappa, replace=False)
    x0[supp] = random_complex(rng, kappa)
    rows = np.sort(rng.choice(n, n_kappa, replace=False))
    phi = MeasurementOperator.from_kron_rows(*(kron_dims or (n, 1)), rows)
    return phi, x0, phi.matvec(x0)


def measurement_with(value):
    """A 64x2 Kronecker operator with 40 rows and a planted kappa=5
    measurement whose entry 7 is replaced by `value`."""
    phi, _, y = planted_instance(np.random.default_rng(3), 128, 40, 5, kron_dims=(64, 2))
    y[7] = value
    return phi, y


def first_dft_rows(n, n_rows):
    """The first n_rows rows of the size-n DFT, as kron(F_n, F_1) rows."""
    return MeasurementOperator.from_kron_rows(n, 1, np.arange(n_rows))


def reference_cosamp(phi, y, cfg):
    """CoSaMP without the repeat stop: _Cosamp's step for exactly cfg.i_max
    iterations unless the residual reaches cfg.tau first."""
    y = np.asarray(y, dtype=complex)
    state = _Cosamp(phi, y, float(np.linalg.norm(y)), cfg)
    support = np.array([], dtype=np.intp)
    for _ in range(cfg.i_max):
        support, b = state.step(support)
        x_hat = np.zeros(phi.shape[1], dtype=complex)
        x_hat[support] = b
        rel = state.residual(x_hat)[0]
        if rel <= cfg.tau:
            break
    return x_hat, support, rel <= cfg.tau


def duplicate_column_operator():
    """Columns (c, c, d, e) on 4 rows: any support holding both copies of c
    fails the rank test."""
    c = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
    d = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    e = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    return DenseOperator(np.stack([c, c, d, e], axis=1)), c, d


@pytest.fixture(scope="module")
def threshold_models():
    """(operator, y, solver config) of the first 20 threshold_4x2 trials,
    the shipped config whose CoSaMP runs never converge."""
    cfg, pdp = load_config(str(Path(__file__).resolve().parent.parent
                               / "configs" / "threshold_4x2.yaml"))
    models = []

    def capture(phi, y, solver_cfg):
        models.append((phi, y, solver_cfg))
        return cosamp(phi, y, solver_cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sr, "cosamp", capture)
        for trial in range(20):
            pipeline.run_experiment(cfg, pdp, trial)
    return models


@st.composite
def kron_operators(draw):
    """A random sampled Kronecker operator and a generator for test vectors."""
    n_dft = draw(st.integers(min_value=1, max_value=32))
    n_s = draw(st.integers(min_value=1, max_value=8))
    n_rows = draw(st.integers(min_value=1, max_value=n_dft * n_s))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = rng.choice(n_dft * n_s, n_rows, replace=False)
    return MeasurementOperator.from_kron_rows(n_dft, n_s, rows), rng


class TestSupportSelect:
    def test_simple(self):
        assert support_select(np.array([3.0, 1.0, 2.0]), 2).tolist() == [0, 2]

    def test_tie_breaks_to_lowest_index(self):
        assert support_select(np.ones(5), 2).tolist() == [0, 1]

    def test_count_zero(self):
        assert support_select(np.array([1.0, 2.0]), 0).size == 0

    def test_count_too_large(self):
        with pytest.raises(ValueError):
            support_select(np.ones(3), 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            support_select(np.ones(3), -1)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_ties_match_stable_argsort(self, mags, data):
        # small-integer magnitudes force ties at the cut
        u = np.array(mags, dtype=float) * np.exp(1j * np.arange(len(mags)))
        count = data.draw(st.integers(min_value=0, max_value=len(mags)))
        want = np.sort(np.argsort(-np.abs(u), kind="stable")[:count])
        np.testing.assert_array_equal(support_select(u, count), want)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        u = random_complex(rng, 64)
        picked = support_select(u, 16)
        # oracle: stable lexicographic sort on (-|u|, index)
        order = sorted(range(64), key=lambda i: (-abs(u[i]), i))
        assert sorted(picked.tolist()) == sorted(order[:16])


class TestMacModel:
    def test_reference_instance(self):
        assert mac_model(2048, 256, 50) == 4_109_888

    def test_smallest_case(self):
        assert mac_model(1, 1, 1) == 15  # 1 + 2 + 4 + 8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mac_model(10, 10, 0)


class TestMeasurementOperator:
    def test_kron_rows_bit_reproducible(self):
        rows = [0, 3, 5, 7]
        phi = MeasurementOperator.from_kron_rows(4, 2, rows)
        np.testing.assert_array_equal(phi.row_indices, rows)
        for i, r in enumerate(rows):
            np.testing.assert_array_equal(nm.kron_row(phi.dims, int(phi.row_indices[i])),
                                          nm.kron_row((4, 2), r))

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError):
            MeasurementOperator.from_kron_rows(4, 2, [1, 1, 2])

    @pytest.mark.parametrize("rows", [[-1, 2], [0, 8], [[0, 1]]],
                             ids=["negative", "past_end", "not_1d"])
    def test_invalid_row_indices_rejected(self, rows):
        with pytest.raises(ValueError):
            MeasurementOperator.from_kron_rows(4, 2, rows)

    @given(kron_operators())
    @settings(max_examples=50, deadline=None)
    def test_matvec_rmatvec_adjoint(self, case):
        phi, rng = case
        n_rows, n_cols = phi.shape
        x = random_complex(rng, n_cols)
        r = random_complex(rng, n_rows)
        assert abs(np.vdot(r, phi.matvec(x)) - np.vdot(phi.rmatvec(r), x)) < 1e-12 * n_cols

    @given(kron_operators())
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_oracle(self, case):
        phi, rng = case
        dense = DenseOperator(np.vstack([nm.kron_row(phi.dims, int(r))
                                         for r in phi.row_indices]))
        n_rows, n_cols = dense.shape
        assert phi.shape == dense.shape
        x = random_complex(rng, n_cols)
        r = random_complex(rng, n_rows)
        idx = rng.choice(n_cols, rng.integers(1, n_cols + 1), replace=False)
        for got, want in ((phi.matvec(x), dense.matvec(x)),
                          (phi.rmatvec(r), dense.rmatvec(r)),
                          (phi.columns(idx), dense.columns(idx))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


    @given(kron_operators(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_gram_matches_columns(self, case, data):
        phi, rng = case
        n_cols = phi.shape[1]
        idx = rng.choice(n_cols, data.draw(st.integers(1, n_cols)), replace=False)
        cols = phi.columns(idx)
        np.testing.assert_allclose(phi.gram(idx), cols.conj().T @ cols, rtol=0, atol=1e-12)


    @given(kron_operators(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_gram_column_matches_gram(self, case, data):
        phi, _ = case
        p = data.draw(st.integers(0, phi.shape[1] - 1))
        np.testing.assert_array_equal(phi.gram_column(p), phi.gram(np.arange(phi.shape[1]))[:, p])


class TestRecoveryConfig:
    @pytest.mark.parametrize("kwargs", [
        {"kappa": 0},
        {"kappa": 2, "tau": 0.0},
        {"kappa": 2, "tau": 1.0},
        {"kappa": 2, "i_max": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryConfig(**kwargs)


class TestCosamp:
    def test_zero_measurements_short_circuit(self):
        phi = first_dft_rows(16, 8)
        res = cosamp(phi, np.zeros(8), RecoveryConfig(kappa=2))
        assert res.iterations == 0
        assert res.converged
        assert res.support.size == 0
        assert np.all(res.x_hat == 0)
        assert res.residual_history == [0.0]

    def test_1d_dft_recovery_32_rows(self):
        rng = np.random.default_rng(42)
        phi, x0, y = planted_instance(rng, 256, 32, 8)
        res = cosamp(phi, y, RecoveryConfig(kappa=8, tau=1e-6))
        err = np.linalg.norm(res.x_hat - x0) / np.linalg.norm(x0)
        assert err < 1e-6
        assert res.converged
        assert res.mac_count > 0

    def test_kron_2048_recovery(self):
        rng = np.random.default_rng(7)
        phi, x0, y = planted_instance(rng, 2048, 200, 50, kron_dims=(256, 8))
        res = cosamp(phi, y, RecoveryConfig(kappa=50, tau=1e-6))
        assert np.linalg.norm(res.x_hat - x0) / np.linalg.norm(x0) < 1e-4

    def test_insufficient_measurements(self):
        phi = first_dft_rows(16, 8)
        with pytest.raises(InsufficientMeasurements):
            cosamp(phi, np.ones(8), RecoveryConfig(kappa=5))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_measurements_rejected(self, value):
        phi, y = measurement_with(value)
        with pytest.raises(ValueError, match="finite"):
            cosamp(phi, y, RecoveryConfig(kappa=5))

    def test_x_hat_exactly_zero_off_support(self):
        rng = np.random.default_rng(1)
        phi, _, y = planted_instance(rng, 64, 24, 4)
        res = cosamp(phi, y, RecoveryConfig(kappa=4))
        off = np.setdiff1d(np.arange(64), res.support)
        assert np.all(res.x_hat[off] == 0)
        assert res.support.size <= 4

    def test_converged_means_residual_below_tau(self):
        rng = np.random.default_rng(2)
        phi, _, y = planted_instance(rng, 128, 40, 6)
        cfg = RecoveryConfig(kappa=6, tau=1e-6)
        res = cosamp(phi, y, cfg)
        assert res.converged
        assert res.stop_reason == "converged"
        assert res.residual_history[-1] <= cfg.tau

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        phi, _, y = planted_instance(rng, 128, 40, 6)
        a = cosamp(phi, y, RecoveryConfig(kappa=6))
        b = cosamp(phi, y, RecoveryConfig(kappa=6))
        np.testing.assert_array_equal(a.x_hat, b.x_hat)
        np.testing.assert_array_equal(a.support, b.support)
        assert a.residual_history == b.residual_history
        assert a.mac_count == b.mac_count

    def test_degenerate_support_after_retry(self):
        # two identical columns always enter the merged support together
        phi, c, d = duplicate_column_operator()
        y = c + 0.1 * d
        with pytest.raises(DegenerateSupport):
            cosamp(phi, y, RecoveryConfig(kappa=2))

    def test_degenerate_support_keeps_the_rank_error(self):
        phi, c, d = duplicate_column_operator()
        with pytest.raises(DegenerateSupport) as info:
            cosamp(phi, c + 0.1 * d, RecoveryConfig(kappa=2))
        assert isinstance(info.value.__cause__, NotPositiveDefinite)

    def test_rejected_solve_is_still_counted(self):
        # both copies of c lead the proxy, so the 2-column solve fails and
        # the 1-column retry succeeds: proxy 16 + rejected solve 31 +
        # retried solve 10 + residual 4
        phi, c, _ = duplicate_column_operator()
        res = cosamp(phi, c, RecoveryConfig(kappa=1, i_max=1))
        assert res.support.tolist() == [0]
        assert res.mac_count == 61

    def test_oracle_equivalence_on_true_support(self):
        rng = np.random.default_rng(5)
        phi, x0, y = planted_instance(rng, 256, 32, 8)
        res = cosamp(phi, y, RecoveryConfig(kappa=8))
        true_supp = np.sort(np.nonzero(x0)[0])
        np.testing.assert_array_equal(res.support, true_supp)
        # dense pseudo-inverse restricted to the found support
        cols = phi.columns(res.support)
        oracle = np.linalg.pinv(cols) @ y
        assert np.linalg.norm(res.x_hat[res.support] - oracle) < 1e-8

    def test_exact_recovery_rate_4kappa_rule(self):
        # random row draws at n_kappa = 4*kappa succeed in >= 95/100 trials
        good = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            phi, x0, y = planted_instance(rng, 512, 48, 12, kron_dims=(64, 8))
            res = cosamp(phi, y, RecoveryConfig(kappa=12, tau=1e-6))
            if np.linalg.norm(res.x_hat - x0) / np.linalg.norm(x0) < 1e-4:
                good += 1
        assert good >= 95

    def test_merged_support_beyond_rows_takes_retry(self):
        # n_kappa == 2*kappa: the 2*kappa candidates merged with a kappa
        # support exceed the rows, so the halved-candidate set is solved
        rng = np.random.default_rng(10)
        phi, x0, y = planted_instance(rng, 256, 16, 8)
        res = cosamp(phi, y, RecoveryConfig(kappa=8, i_max=10))
        assert 1 <= res.iterations <= 10
        assert res.support.size <= 8
        assert np.all(np.isfinite(res.x_hat))

    def test_iterations_capped(self):
        rng = np.random.default_rng(6)
        phi = DenseOperator(random_complex(rng, 16, 64) / 4)
        y = random_complex(rng, 16)  # generic dense target, no sparse fit
        res = cosamp(phi, y, RecoveryConfig(kappa=2, tau=1e-9, i_max=7))
        assert res.iterations <= 7
        assert not res.converged
        assert res.stop_reason in ("cycled", "i_max")

    def test_stop_at_the_cap_before_any_repeat(self):
        rng = np.random.default_rng(6)
        phi = DenseOperator(random_complex(rng, 16, 64) / 4)
        res = cosamp(phi, random_complex(rng, 16), RecoveryConfig(kappa=2, tau=1e-9, i_max=1))
        assert res.iterations == 1 and len(res.residual_history) == 1
        assert res.stop_reason == "i_max" and not res.converged

    def test_repeat_stop_returns_the_iterate_at_the_cap(self, threshold_models):
        # i_max 49 and 50 land on different phases of a period-2 cycle
        phase_dependent = 0
        for phi, y, cfg in threshold_models:
            x_at = {}
            for i_max in (49, 50):
                at_cap = dataclasses.replace(cfg, i_max=i_max)
                res = cosamp(phi, y, at_cap)
                x_hat, support, converged = reference_cosamp(phi, y, at_cap)
                assert res.x_hat.tobytes() == x_hat.tobytes()
                assert res.support.tobytes() == support.tobytes()
                assert res.converged == converged
                assert res.stop_reason == "cycled" and res.iterations < i_max
                assert len(res.residual_history) == res.iterations
                x_at[i_max] = x_hat.tobytes()
            phase_dependent += x_at[49] != x_at[50]
        assert phase_dependent > 0


class TestLeastSquaresPath:
    @pytest.mark.parametrize("solver", [cosamp, omp])
    def test_no_column_block_is_formed(self, solver, monkeypatch):
        # CoSaMP's least squares go through solve_normal_equations with an
        # implicit block whose normal equations come from the Gram table;
        # OMP grows its factor from Gram columns and calls neither
        def no_columns(self, idx):
            raise AssertionError("the solver evaluated a column block")

        widths = []
        solve = nm.solve_normal_equations

        def spy(phi_t, y):
            assert solver is cosamp, "OMP solved the normal equations"
            assert not isinstance(phi_t, np.ndarray)
            widths.append(phi_t.shape[1])
            return solve(phi_t, y)

        monkeypatch.setattr(MeasurementOperator, "columns", no_columns)
        monkeypatch.setattr(nm, "solve_normal_equations", spy)
        rng = np.random.default_rng(11)
        phi, x0, y = planted_instance(rng, 64, 32, 4, kron_dims=(16, 4))
        res = solver(phi, y, RecoveryConfig(kappa=4))
        assert res.converged
        assert len(widths) >= (res.iterations if solver is cosamp else 0)
        np.testing.assert_allclose(res.x_hat, x0, rtol=0, atol=1e-9)

    def test_right_hand_side_only_for_the_measurement(self):
        phi = first_dft_rows(16, 8)
        y = np.ones(8, dtype=complex)
        block = _ColumnSubset(phi, np.array([0, 3]), y, phi.rmatvec(y))
        gram, rhs = block.normal_equations(y)
        cols = phi.columns([0, 3])
        np.testing.assert_allclose(gram, cols.conj().T @ cols, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rhs, cols.conj().T @ y, rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            block.normal_equations(y.copy())


class TestOmp:
    def test_one_sparse_single_iteration(self):
        rng = np.random.default_rng(8)
        phi = first_dft_rows(32, 16)
        x0 = np.zeros(32, dtype=complex)
        x0[11] = 2.0 - 1.0j
        res = omp(phi, phi.matvec(x0), RecoveryConfig(kappa=4))
        assert res.iterations == 1
        assert res.converged
        assert res.support.tolist() == [11]
        assert np.linalg.norm(res.x_hat - x0) < 1e-10

    def test_matches_cosamp_on_1d_instance(self):
        rng = np.random.default_rng(42)
        phi, x0, y = planted_instance(rng, 256, 32, 8)
        res_omp = omp(phi, y, RecoveryConfig(kappa=8))
        res_cos = cosamp(phi, y, RecoveryConfig(kappa=8))
        assert np.linalg.norm(res_omp.x_hat - x0) / np.linalg.norm(x0) < 1e-6
        assert np.linalg.norm(res_omp.x_hat - res_cos.x_hat) < 1e-6

    def test_orthogonal_target_spins_to_cap(self):
        # columns live in the first two coordinates, y in the third: no
        # atom ever correlates, so the second iteration repeats the first
        mat = np.zeros((3, 4), dtype=complex)
        mat[0, :2] = 1.0
        mat[1, 2:] = 1.0
        phi = DenseOperator(mat)
        y = np.array([0.0, 0.0, 1.0], dtype=complex)
        cfg = RecoveryConfig(kappa=1, tau=1e-6, i_max=9)
        res = omp(phi, y, cfg)
        assert res.support.size == 0
        assert not res.converged
        assert res.iterations == 2
        assert res.stop_reason == "cycled"

    def test_no_atom_left_keeps_the_last_fit(self):
        # atom 0 explains y's first coordinate; its duplicate 1 and atom 2
        # are then orthogonal to the residual, so the step returns None
        mat = np.zeros((4, 3), dtype=complex)
        mat[0, :2] = 1.0
        mat[1, 2] = 1.0
        y = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
        res = omp(DenseOperator(mat), y, RecoveryConfig(kappa=2, tau=1e-6, i_max=20))
        assert res.stop_reason == "cycled" and res.iterations == 2
        assert res.support.tolist() == [0]
        np.testing.assert_array_equal(res.x_hat, [1.0, 0.0, 0.0])
        assert res.residual_history == pytest.approx([np.sqrt(0.5)] * 2)
        assert not res.converged

    # Atom 1 is e1 scaled by 1e-7: alone it factors, but beside the unit
    # atom 0 its squared pivot 1e-14 is below 1e-12 * trace / 2, so the rank
    # test rejects it although y correlates with it more than with atom 2.
    def test_rank_test_retry_takes_the_next_atom(self):
        mat = np.zeros((4, 3), dtype=complex)
        mat[0, 0], mat[1, 1], mat[2, 2] = 1.0, 1e-7, 1.0
        y = np.array([1000.0, 1e8, 1.0, 0.0], dtype=complex)
        res = omp(DenseOperator(mat), y, RecoveryConfig(kappa=2, i_max=20))
        assert res.stop_reason == "kappa_reached" and res.iterations == 2
        assert res.support.tolist() == [0, 2]
        np.testing.assert_allclose(res.x_hat, [1000.0, 0.0, 1.0], rtol=1e-15, atol=0)
        # proxies 2 x 12, solves of 1 column (10) and of 2 columns twice
        # (31 each, the rejected one included), residuals 4 + 8
        assert res.mac_count == 108

    def test_rank_test_failing_twice_raises(self):
        mat = np.zeros((4, 3), dtype=complex)
        mat[0, 0], mat[1, 1], mat[2, 2] = 1.0, 1e-7, 1e-7
        y = np.array([1000.0, 1e8, 5e7, 0.0], dtype=complex)
        with pytest.raises(DegenerateSupport, match="size 2 after retry") as info:
            omp(DenseOperator(mat), y, RecoveryConfig(kappa=2, i_max=20))
        assert isinstance(info.value.__cause__, NotPositiveDefinite)

    def test_rank_test_retry_without_a_correlating_atom_raises(self):
        mat = np.zeros((4, 3), dtype=complex)
        mat[0, 0], mat[1, 1], mat[2, 2] = 1.0, 1e-7, 1.0
        y = np.array([1000.0, 1e8, 0.0, 0.0], dtype=complex)
        with pytest.raises(DegenerateSupport, match="no usable atom left after retry"):
            omp(DenseOperator(mat), y, RecoveryConfig(kappa=2, i_max=20))

    def test_residual_history_tracks_the_exact_norm(self):
        # a run capped at k ends on iterate k, and its last entry is exact
        rng = np.random.default_rng(12)
        phi, _, y = planted_instance(rng, 256, 64, 8, kron_dims=(64, 4))
        res = omp(phi, y, RecoveryConfig(kappa=12))
        assert res.stop_reason == "converged" and res.iterations == 8
        for k, rel in enumerate(res.residual_history, start=1):
            capped = omp(phi, y, RecoveryConfig(kappa=12, i_max=k))
            exact = np.linalg.norm(y - phi.matvec(capped.x_hat)) / np.linalg.norm(y)
            assert capped.residual_history[-1] == exact
            assert rel == pytest.approx(exact, rel=0, abs=1e-7)

    def test_converges_below_the_estimate_floor(self):
        # at the exact fit the factor's estimate reads 1.5e-8 (exact: 2e-16);
        # with tau far below that the stop still rests on the exact norm
        rng = np.random.default_rng(32)
        phi, _, y = planted_instance(rng, 256, 64, 8, kron_dims=(64, 4))
        res = omp(phi, y, RecoveryConfig(kappa=12, tau=1e-14))
        assert res.stop_reason == "converged" and res.support.size == 8
        assert res.residual_history[-1] <= 1e-14

    def test_stops_once_the_budget_is_spent(self):
        rng = np.random.default_rng(9)
        phi = DenseOperator(random_complex(rng, 24, 48) / 5)
        res = omp(phi, random_complex(rng, 24), RecoveryConfig(kappa=5, tau=1e-9))
        assert res.stop_reason == "kappa_reached"
        assert res.iterations == res.support.size == 5
        assert not res.converged

    def test_stop_reasons_are_documented_values(self, threshold_models):
        phi, y, cfg = threshold_models[0]
        for solver in (cosamp, omp):
            assert solver(phi, y, cfg).stop_reason in STOP_REASONS

    def test_zero_measurements_short_circuit(self):
        phi = first_dft_rows(8, 4)
        res = omp(phi, np.zeros(4), RecoveryConfig(kappa=1))
        assert res.converged and res.iterations == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_measurements_rejected(self, value):
        phi, y = measurement_with(value)
        with pytest.raises(ValueError, match="finite"):
            omp(phi, y, RecoveryConfig(kappa=5))

    def test_factor_is_sized_by_the_iteration_cap(self):
        # kappa above i_max: the run adds at most i_max atoms
        phi = first_dft_rows(64, 40)
        y = random_complex(np.random.default_rng(13), 40)
        cfg = RecoveryConfig(kappa=20, i_max=3)
        state = _Omp(phi, y, float(np.linalg.norm(y)), cfg)
        assert state.cols.shape == (3, 64) and state.inv.shape == (3, 3)
        assert state.atoms.shape == state.z.shape == (3,)
        res = omp(phi, y, cfg)
        assert res.stop_reason == "i_max" and res.support.size == 3

    def test_support_never_exceeds_kappa(self):
        rng = np.random.default_rng(9)
        phi = DenseOperator(random_complex(rng, 24, 48) / 5)
        y = random_complex(rng, 24)
        res = omp(phi, y, RecoveryConfig(kappa=5, tau=1e-9, i_max=50))
        assert res.support.size <= 5

    def test_in_place_state_keeps_its_invariants(self):
        # the proxy, its magnitudes, L^-1 and z are run buffers updated in
        # place; alpha0 must survive every update bit for bit
        rng = np.random.default_rng(14)
        phi = MeasurementOperator(64, 4, rng.choice(256, 64, replace=False))
        y = random_complex(rng, 64)
        state = _Omp(phi, y, float(np.linalg.norm(y)), RecoveryConfig(kappa=12, i_max=12))
        alpha0 = phi.rmatvec(y)
        assert not np.shares_memory(state.proxy, state.alpha0)
        support = np.array([], dtype=np.intp)
        for m in range(1, 13):
            support, b = state.step(support)
            assert support.size == state.m == m
            np.testing.assert_array_equal(state.alpha0, alpha0)
            fit = sum(b_j * phi.gram_column(t) for t, b_j in zip(support, b))
            np.testing.assert_allclose(state.proxy, alpha0 - fit, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(alpha0)))
            z = state.z[:m]
            assert state.z_sq == pytest.approx(np.vdot(z, z).real, rel=1e-12)


class TestMacInstrumentation:
    def test_within_factor_two_of_model(self):
        rng = np.random.default_rng(1)
        phi, x0, y = planted_instance(rng, 2048, 256, 50, kron_dims=(256, 8))
        res = cosamp(phi, y, RecoveryConfig(kappa=50))
        per_iter = res.mac_count / res.iterations
        model = mac_model(2048, 256, 50)
        assert 0.5 * model <= per_iter <= 2.0 * model

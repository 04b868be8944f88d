"""An independent dense oracle for the greedy solvers.

Textbook OMP (Pati, Rezaiifar & Krishnaprasad, 1993) and CoSaMP (Needell
& Tropp, arXiv:0803.2392, Algorithm 1) on an explicit matrix stacked from
numerics.kron_row, with least squares by np.linalg.lstsq and selection by
a stable argsort of -|u| (ties to the lowest index). They share no code
with sparse_recovery. Running a production solver with i_max = k must
return the oracle's k-th iterate, whichever stop rule ended the
production run, the repeat stop and its period arithmetic included.

The comparison of a draw ends at the first iteration the oracle cannot
vouch for: a selection cut with a near tie (a gap within 1e-9 of the
largest magnitude; rounding may order such entries either way), a
least-squares block whose columns have a condition number above MAX_COND
(where the production rank test could take its retry, or its normal
equations could lose the 1e-9 accuracy), a CoSaMP merged set with more
columns than rows (the production halved-candidate retry), or an OMP
proxy with no correlating atom left. Exact ties are compared where every
proxy magnitude is equal: the proxy of a unit measurement on row 0, whose
row is constant, is constant in any implementation, so the first
selection of such a draw takes the lowest indices.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cs_sounding import numerics as nm
from cs_sounding.feedback import quantize_measurements
from cs_sounding.sparse_recovery import MeasurementOperator, RecoveryConfig, cosamp, omp

MARGIN = 1e-9
MAX_COND = 1e3
COEF_RTOL = 1e-9


def top(mags, count, constant_ok=False):
    """The `count` largest of mags, ties to the lowest index, sorted
    ascending; and whether the cut below them is decided: a gap wider than
    MARGIN of the largest or, when constant_ok, all of mags equal."""
    order = np.argsort(-mags, kind="stable")
    if count >= mags.size:
        return np.sort(order), True
    gap = mags[order[count - 1]] - mags[order[count]]
    constant = constant_ok and mags[order[0]] == mags[order[-1]]
    return np.sort(order[:count]), constant or gap > MARGIN * mags[order[0]]


def fit(a, y, t_set):
    """Least squares of y on columns t_set, and whether they are well conditioned."""
    cols = a[:, t_set]
    sv = np.linalg.svd(cols, compute_uv=False)
    return np.linalg.lstsq(cols, y, rcond=None)[0], sv[0] <= MAX_COND * sv[-1]


def oracle_omp(a, y, cfg):
    """Textbook OMP: the comparable iterates (support, coefficients)."""
    iterates, support, r = [], np.array([], dtype=np.intp), y
    for _ in range(cfg.i_max):
        free = np.setdiff1d(np.arange(a.shape[1]), support)
        mags = np.abs(a.conj().T @ r)[free]
        pick, clear = top(mags, 1, constant_ok=True)
        if not clear or mags[pick[0]] == 0:
            break
        support = np.union1d(support, free[pick])
        b, ok = fit(a, y, support)
        if not ok:
            break
        iterates.append((support, b))
        r = y - a[:, support] @ b
        if np.linalg.norm(r) <= cfg.tau * np.linalg.norm(y) or support.size >= cfg.kappa:
            break
    return iterates


def oracle_cosamp(a, y, cfg):
    """Textbook CoSaMP: the comparable iterates (support, coefficients)."""
    iterates, support, r = [], np.array([], dtype=np.intp), y
    for _ in range(cfg.i_max):
        omega, clear = top(np.abs(a.conj().T @ r), min(2 * cfg.kappa, a.shape[1]),
                           constant_ok=True)
        t_set = np.union1d(support, omega)
        if not clear or t_set.size > a.shape[0]:
            break
        b, ok = fit(a, y, t_set)
        keep, clear = top(np.abs(b), min(cfg.kappa, t_set.size))
        if not (ok and clear):
            break
        support, b = t_set[keep], b[keep]
        iterates.append((support, b))
        r = y - a[:, support] @ b
        if np.linalg.norm(r) <= cfg.tau * np.linalg.norm(y):
            break
    return iterates


def problem(n_dft, n_s, n_kappa, kappa, kind, seed):
    """(operator, its dense matrix, y, solver config) for n_kappa random
    rows (row 0 among them) of the (n_dft, n_s) grid: y is planted (at
    most kappa atoms), noisy (5% noise added), quantized (2 to 10 bits),
    or "tied", a unit measurement on row 0, whose proxy magnitudes all tie
    exactly."""
    rng = np.random.default_rng(seed)
    n = n_dft * n_s
    cfg = RecoveryConfig(kappa=kappa, i_max=12)
    rows = np.concatenate(([0], 1 + rng.choice(n - 1, n_kappa - 1, replace=False)))
    phi = MeasurementOperator(n_dft, n_s, rng.permutation(rows))
    a = np.vstack([nm.kron_row((n_dft, n_s), int(r)) for r in phi.row_indices])
    if kind == "tied":
        return phi, a, (phi.row_indices == 0).astype(complex), cfg
    x0 = np.zeros(n, dtype=complex)
    planted = rng.choice(n, rng.integers(1, kappa + 1), replace=False)
    x0[planted] = rng.standard_normal(planted.size) + 1j * rng.standard_normal(planted.size)
    y = a @ x0
    if kind == "noisy":
        noise = rng.standard_normal(n_kappa) + 1j * rng.standard_normal(n_kappa)
        y = y + 0.05 * np.linalg.norm(y) / np.linalg.norm(noise) * noise
    elif kind == "quantized":
        y = quantize_measurements(y, int(rng.integers(2, 11))).values
    return phi, a, y, cfg


@st.composite
def problems(draw):
    n_dft = draw(st.integers(min_value=2, max_value=64))
    n_s = draw(st.integers(min_value=1, max_value=8))
    n_kappa = draw(st.integers(min_value=2, max_value=min(n_dft * n_s, 48)))
    kappa = draw(st.integers(min_value=1, max_value=min(n_kappa // 2, 8)))
    kind = draw(st.sampled_from(("planted", "noisy", "quantized", "tied")))
    return problem(n_dft, n_s, n_kappa, kappa, kind,
                   draw(st.integers(min_value=0, max_value=2**32 - 1)))


def assert_matches(solver, phi, y, cfg, iterates):
    for k, (support, b) in enumerate(iterates, start=1):
        res = solver(phi, y, dataclasses.replace(cfg, i_max=k))
        np.testing.assert_array_equal(res.support, support, err_msg=f"iterate {k}")
        err = np.linalg.norm(res.x_hat[support] - b)
        assert err <= COEF_RTOL * np.linalg.norm(b), f"iterate {k}: coefficients off by {err:.3e}"


# Draws the strategy seldom makes: CoSaMP cycles of period 2 (the repeat
# stop's phase arithmetic) and exact ties on the first selection.
PERIOD_TWO = (problem(26, 3, 11, 3, "quantized", 9), problem(11, 3, 6, 2, "noisy", 52))
TIED = problem(8, 1, 6, 2, "tied", 0)


@given(problems())
@example(TIED)
@settings(max_examples=80, deadline=None)
def test_omp_matches_textbook_omp(case):
    phi, a, y, cfg = case
    assert_matches(omp, phi, y, cfg, oracle_omp(a, y, cfg))


@given(problems())
@example(PERIOD_TWO[0])
@example(PERIOD_TWO[1])
@example(TIED)
@settings(max_examples=80, deadline=None)
def test_cosamp_matches_textbook_cosamp(case):
    phi, a, y, cfg = case
    assert_matches(cosamp, phi, y, cfg, oracle_cosamp(a, y, cfg))

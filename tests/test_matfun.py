"""Matrix-function evaluation, certificates, degree selection, Newton."""

import math

import numpy as np
import pytest
import scipy.linalg

from marktop import (BoundInvalid, DegreeUnavailable, MatArg, PartialFraction,
                     PoleCollision, aposteriori_bound, apriori_bound,
                     auto_degree, build_geometry, dense_arg, diag_arg,
                     eval_rational_at_matrix, fit_interpolant, frac_power,
                     from_toeplitz, inv_sqrt_spec, log_via_scaling,
                     optimal_nodes, residual_sqrt, sqrt_db_newton, tl_arg,
                     worst_case_spec)
from marktop.experiments import (ExperimentConfig, dense_f_oracle,
                                 gen_random_spd_toeplitz, run_experiment)
from marktop.matfun import mat_to_dense
from marktop.tlalgebra import to_dense

INF = float("inf")


def cosine_points(c, d, n):
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    return 0.5 * (c + d) + 0.5 * (d - c) * np.cos(theta)


def spd_toeplitz_col(n, seed, diag=4.0):
    rng = np.random.default_rng(seed)
    col = rng.uniform(-1.0, 1.0, size=n) * 0.5 ** np.arange(n)
    col[0] = diag  # diagonal dominance keeps the matrix SPD
    return col


def markov_interpolant(c, d, m, rep="pfd"):
    g = build_geometry(-INF, 0.0, c, d)
    spec = inv_sqrt_spec()
    return g, fit_interpolant(spec, optimal_nodes(g, m), rep, interval=(-INF, 0.0))


# ----------------------------------------------------- eval_rational_at_matrix

def test_eval_at_identity_is_scalar_value():
    _, r = markov_interpolant(0.5, 1.5, 3)
    out = eval_rational_at_matrix(r, dense_arg(np.eye(6), 1.0, 1.0))
    assert np.allclose(out.data, r(1.0) * np.eye(6), atol=1e-13)


def test_eval_diagonal_spectral_map():
    _, r = markov_interpolant(0.5, 1.0, 3)
    lam = cosine_points(0.5, 1.0, 20)
    out = eval_rational_at_matrix(r, diag_arg(lam))
    assert np.allclose(out.data, r(lam), rtol=1e-12)


def test_eval_dense_vs_tl_pfd():
    n = 128
    col = spd_toeplitz_col(n, 31)
    dense = scipy.linalg.toeplitz(col)
    eigs = np.linalg.eigvalsh(dense)
    c, d = eigs[0] * 0.99, eigs[-1] * 1.01
    _, r = markov_interpolant(c, d, 6)
    out_d = eval_rational_at_matrix(r, dense_arg(dense, c, d)).data
    out_t = to_dense(eval_rational_at_matrix(r, tl_arg(from_toeplitz(col), c, d)).data)
    assert np.linalg.norm(out_t - out_d, 2) <= 1e-9 * np.linalg.norm(out_d, 2)


def test_eval_pole_collision():
    r = PartialFraction(poles=(0.75,), residuals=(1.0,))
    with pytest.raises(PoleCollision):
        eval_rational_at_matrix(r, dense_arg(np.eye(4), 0.5, 1.0))


# ---------------------------------------------------------------- residual_sqrt

def test_residual_scalar_reduction():
    c, d = 0.5, 1.0
    g = build_geometry(-INF, 0.0, c, d)
    nu = worst_case_spec(-INF, 0.0)
    r_nu = fit_interpolant(nu, optimal_nodes(g, 3), "pfd", interval=(-INF, 0.0))
    lam = 0.8
    got = residual_sqrt(diag_arg([lam], c, d), r_nu, g)
    want = abs(1.0 - r_nu(lam) ** 2 * (lam - 0.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_residual_below_apriori_on_diagonal():
    c, d = 0.5, 1.0
    g = build_geometry(-INF, 0.0, c, d)
    nu = worst_case_spec(-INF, 0.0)
    a = diag_arg(cosine_points(c, d, 200), c, d)
    for m in range(1, 9):
        apr = apriori_bound(g, m)
        if apr < 1e-12:
            break
        r_nu = fit_interpolant(nu, optimal_nodes(g, m), "pfd", interval=(-INF, 0.0))
        assert residual_sqrt(a, r_nu, g) <= apr * (1.0 + 1e-6) + 1e-12


def test_residual_matrix_matches_diagonal():
    c, d = 0.5, 1.0
    g = build_geometry(-INF, 0.0, c, d)
    nu = worst_case_spec(-INF, 0.0)
    r_nu = fit_interpolant(nu, optimal_nodes(g, 3), "pfd", interval=(-INF, 0.0))
    lam = cosine_points(c, d, 16)
    got_diag = residual_sqrt(diag_arg(lam, c, d), r_nu, g)
    got_dense = residual_sqrt(dense_arg(np.diag(lam), c, d), r_nu, g)
    assert got_dense == pytest.approx(got_diag, rel=1e-10)


# ------------------------------------------------------------ aposteriori_bound

def test_aposteriori_requires_more_nodes():
    g, r = markov_interpolant(0.5, 1.0, 3)
    a = diag_arg(cosine_points(0.5, 1.0, 30), 0.5, 1.0)
    with pytest.raises(BoundInvalid):
        aposteriori_bound(a, r, r, g)


def test_aposteriori_dominates_true_error():
    c, d = 0.5, 1.0
    g = build_geometry(-INF, 0.0, c, d)
    spec = inv_sqrt_spec()
    r_m = fit_interpolant(spec, optimal_nodes(g, 3), "pfd", interval=(-INF, 0.0))
    r_mp = fit_interpolant(spec, optimal_nodes(g, 5), "pfd", interval=(-INF, 0.0))
    lam = cosine_points(c, d, 100)
    a = diag_arg(lam, c, d)
    bound = aposteriori_bound(a, r_m, r_mp, g)
    true = np.max(np.abs(1.0 - r_m(lam) * np.sqrt(lam)))
    assert bound >= true * (1.0 - 1e-6)


# ------------------------------------------------------------------ auto_degree

@pytest.mark.parametrize("rep", ["pfd", "barycentric", "thiele"])
def test_auto_degree_accepted_below_apriori(rep):
    c, d = 0.5, 1.0
    g = build_geometry(-INF, 0.0, c, d)
    lam = cosine_points(c, d, 100)
    a = diag_arg(lam, c, d)
    res = auto_degree(inv_sqrt_spec(), a, g, rep=rep, m_max=20)
    assert res.m >= 1
    f_lam = 1.0 / np.sqrt(lam)
    # every accepted index must have measured error below the a priori bound
    for m, _resid, apr, accepted in res.history:
        if not accepted or apr is None:
            continue
        nodes = optimal_nodes(g, m)
        r = fit_interpolant(inv_sqrt_spec(), nodes, rep, interval=(-INF, 0.0))
        err = np.max(np.abs(1.0 - r(lam) / f_lam))
        assert err <= apr + 1e-12
    # final approximation consistent with the chosen degree
    err_final = np.max(np.abs(1.0 - res.approximation.data / f_lam))
    assert err_final <= apriori_bound(g, res.m) + 1e-12


def test_auto_degree_scalar_consistency():
    c, d = 0.5, 1.0
    g = build_geometry(-INF, 0.0, c, d)
    lam = 0.7
    res_diag = auto_degree(inv_sqrt_spec(), diag_arg([lam], c, d), g)
    res_dense = auto_degree(inv_sqrt_spec(), dense_arg([[lam]], c, d), g)
    assert res_diag.m == res_dense.m


def test_auto_degree_not_triggered():
    c, d = 0.5, 1.0
    g = build_geometry(-INF, 0.0, c, d)
    a = diag_arg(cosine_points(c, d, 20), c, d)
    res = auto_degree(inv_sqrt_spec(), a, g, m_max=3)
    assert res.not_triggered
    assert res.m == 3


def test_auto_degree_unavailable_with_lying_bounds():
    # eigenvalues far outside the declared [c, d]: m=1 already violates
    g = build_geometry(-INF, 0.0, 0.5, 1.0)
    a = diag_arg([150.0, 200.0], c=0.5, d=1.0)
    with pytest.raises(DegreeUnavailable):
        auto_degree(inv_sqrt_spec(), a, g, m_max=5)


def test_run_experiment_rows_match_auto_degree():
    # spectrum [1, 1e12]: 2 rho^2 >= 1, so m = 1 has no a priori bound
    tin = gen_random_spd_toeplitz(24, 1.0, 1e12, 5)
    spec = inv_sqrt_spec()
    config = ExperimentConfig(spec, tin, "iii", m_max=6)
    rows = run_experiment(config)
    dense = scipy.linalg.toeplitz(tin.col, tin.row)
    eigs = np.linalg.eigvalsh(dense)
    a = dense_arg(dense, eigs[0], eigs[-1])
    g = build_geometry(-INF, 0.0, a.c, a.d)
    oracle = dense_f_oracle(spec, dense)
    for rep in config.reps:
        res = auto_degree(spec, a, g, rep, config.m_max)
        rep_rows = [row for row in rows if row.rep == rep]
        assert res.history[0][2] is None
        for (m, resid, apr, accepted), row in zip(res.history, rep_rows):
            assert (row.m, row.residual, row.accepted) == (m, resid, accepted)
            if apr is None:
                assert math.isnan(row.apriori)
            else:
                assert row.apriori == apr
        err = np.linalg.norm(res.approximation.data - oracle, 2) / np.linalg.norm(oracle, 2)
        assert rep_rows[res.m - 1].rel_err == pytest.approx(err, rel=1e-12)


# --------------------------------------------------------------- sqrt_db_newton

def test_newton_scalar_4i():
    b = dense_arg(4.0 * np.eye(5), 4.0, 4.0)
    res = sqrt_db_newton(b, tol=1e-14)
    assert res.mus[0] == pytest.approx(1.0 / (4.0 * 4.0) ** 0.25)
    assert np.linalg.norm(res.x.data - 2.0 * np.eye(5), 2) <= 1e-12


def test_newton_mu0_unit_interval():
    b = dense_arg(np.eye(3), 1.0, 1.0)
    res = sqrt_db_newton(b, tol=1e-14)
    assert res.mus[0] == 1.0  # cd = 1 starts in phase 2 immediately


def test_newton_mu_schedule_increases_to_one():
    rng = np.random.default_rng(40)
    q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
    eigs = np.logspace(0, 3, 32)
    b = dense_arg(q @ np.diag(eigs) @ q.T, 1.0, 1e3)
    res = sqrt_db_newton(b)
    mus = np.asarray(res.mus)
    phase1 = mus[:res.phase2_start]
    assert np.all(np.diff(phase1) > 0.0)
    assert np.all(phase1 < 1.0)
    assert np.all(mus[res.phase2_start:] == 1.0)


@pytest.mark.parametrize("cond", [1e2, 1e4])
def test_newton_residual_and_quadratic_phase2(cond):
    n = 64
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.logspace(0, math.log10(cond), n)
    bm = q @ np.diag(eigs) @ q.T
    b = dense_arg(bm, 1.0, cond)
    res = sqrt_db_newton(b, tol=1e-13)
    x = res.x.data
    assert np.linalg.norm(x @ x - bm, 2) <= 1e-9 * np.linalg.norm(bm, 2)
    floor = 50.0 * n * np.finfo(float).eps
    r = res.residuals
    for k in range(max(res.phase2_start, 0), len(r) - 1):
        assert r[k + 1] <= max(r[k] ** 2 / 3.0 * 1.5, floor)


# -------------------------------------------------------------- log_via_scaling

def test_log_ell_zero_path():
    lam = cosine_points(0.5, 1.5, 40)
    res = log_via_scaling(diag_arg(lam))
    assert res.scaling[0] == 0
    assert np.max(np.abs(res.approximation.data - np.log(lam))) <= 1e-12


def test_log_of_e_times_identity():
    # c = d collapses the geometry, so bracket the single eigenvalue
    a = dense_arg(math.e * np.eye(6), math.e * (1 - 1e-6), math.e * (1 + 1e-6))
    res = log_via_scaling(a)
    assert np.linalg.norm(res.approximation.data - np.eye(6), 2) <= 1e-10


def test_log_dense_oracle_with_scaling():
    n = 64
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.logspace(0, 4, n)
    am = q @ np.diag(eigs) @ q.T
    res = log_via_scaling(dense_arg(am, 1.0, 1e4))
    assert res.scaling[0] == 2  # (d/c)^(1/4) = 10 <= 10
    want = q @ np.diag(np.log(eigs)) @ q.T
    err = np.linalg.norm(res.approximation.data - want, 2)
    assert err <= 1e-7 * np.linalg.norm(want, 2)


# ------------------------------------------------------------------ frac_power

def test_frac_power_gamma_zero():
    a = dense_arg(3.0 * np.eye(4), 3.0, 3.0)
    res = frac_power(a, 0.0)
    assert np.array_equal(mat_to_dense(res.approximation), np.eye(4))


def test_frac_power_decomposition_minus_third():
    lam = np.linspace(1.0, 2000.0, 50)
    res = frac_power(diag_arg(lam), -1.0 / 3.0)
    assert res.scaling == (2, -1, pytest.approx(-1.0 / 3.0))
    assert np.max(np.abs(1.0 - res.approximation.data / lam ** (-1.0 / 3.0))) <= 1e-10


def test_frac_power_integer_bypass():
    # gamma = -1/2 with ell = 1 gives 2^ell gamma = -1: plain inverse
    lam = np.linspace(1.0, 50.0, 30)
    res = frac_power(diag_arg(lam), -0.5)
    assert res.scaling == (1, -1, 0.0)
    assert res.m == 0
    assert np.max(np.abs(1.0 - res.approximation.data / lam ** -0.5)) <= 1e-10


def test_frac_power_diagonal_scalar_oracle():
    lam = np.linspace(1.0, 50.0, 30)
    res = frac_power(diag_arg(lam), -0.4)
    assert np.max(np.abs(1.0 - res.approximation.data / lam ** -0.4)) <= 1e-10


def test_frac_power_tl_argument():
    n = 64
    col = spd_toeplitz_col(n, 43)
    dense = scipy.linalg.toeplitz(col)
    eigs = np.linalg.eigvalsh(dense)
    c, d = eigs[0] * 0.99, eigs[-1] * 1.01
    res = frac_power(tl_arg(from_toeplitz(col), c, d), -1.0 / 3.0)
    w, v = np.linalg.eigh(dense)
    want = v @ np.diag(w ** (-1.0 / 3.0)) @ v.T
    err = np.linalg.norm(mat_to_dense(res.approximation) - want, 2)
    assert err <= 1e-10 * np.linalg.norm(want, 2)

"""Matrix-function evaluation, certificates, degree selection, Newton."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from marktop import (Barycentric, BoundInvalid, DegreeUnavailable, DimensionError,
                     InvalidInterval, MatArg, NoConvergence, PartialFraction, PoleCollision, SingularMatrix, aposteriori_bound,
                     apriori_bound, auto_degree, build_geometry, custom_spec, dense_arg,
                     diag_arg, eval_rational_at_matrix, fit_interpolant,
                     frac_power, from_toeplitz, inv_sqrt_spec, log_spec,
                     log_via_scaling, loewner_pfd, optimal_nodes, power_spec, residual_sqrt,
                     sqrt_db_newton, ThieleCF, tl_arg, worst_case_spec)
from marktop import matfun, tlalgebra
from marktop.experiments import (dense_f_oracle, gen_random_spd_toeplitz,
                                 run_experiment)
from marktop.matfun import degree_sweep, spectral_norm
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
    assert np.allclose(out, r(1.0) * np.eye(6), atol=1e-13)


def test_eval_diagonal_spectral_map():
    _, r = markov_interpolant(0.5, 1.0, 3)
    lam = cosine_points(0.5, 1.0, 20)
    out = eval_rational_at_matrix(r, diag_arg(lam))
    assert np.allclose(out, r(lam), rtol=1e-12)
    # a one-node r is a constant, which the spectrum takes entrywise too
    for const in (ThieleCF((2.0,), (0.5,), True), Barycentric((2.0,), (1.0,), (0.5,))):
        assert np.array_equal(eval_rational_at_matrix(const, diag_arg(lam)), const(lam))


def test_eval_dense_vs_tl_pfd():
    n = 128
    col = spd_toeplitz_col(n, 31)
    dense = scipy.linalg.toeplitz(col)
    eigs = np.linalg.eigvalsh(dense)
    c, d = eigs[0] * 0.99, eigs[-1] * 1.01
    _, r = markov_interpolant(c, d, 6)
    out_d = eval_rational_at_matrix(r, dense_arg(dense, c, d))
    out_t = to_dense(eval_rational_at_matrix(r, tl_arg(from_toeplitz(col), c, d)))
    assert np.linalg.norm(out_t - out_d, 2) <= 1e-9 * np.linalg.norm(out_d, 2)


@pytest.mark.parametrize("m", [2, 3])
def test_thiele_and_barycentric_levels_are_shifts(m, levinson_calls, dense_calls,
                                                   monkeypatch):
    # on a tagged argument Thiele's innermost level p I + (A - t I)/p_last
    # stays tagged and is inverted by Levinson: 2m - 2 dense LUs, one fewer
    # than with p_last I inverted; barycentric's running sums start from
    # S_1: 3m - 2 products, three fewer than from S_0 = c_0 I
    col = spd_toeplitz_col(48, 5)
    a = tl_arg(from_toeplitz(col), 2.0, 6.0)
    w, v = np.linalg.eigh(scipy.linalg.toeplitz(col))
    products = []
    multiply = matfun.tl.multiply
    monkeypatch.setattr(matfun.tl, "multiply",
                        lambda x, y: products.append(x.n) or multiply(x, y))
    _, thiele = markov_interpolant(2.0, 6.0, m, "thiele")
    _, bary = markov_interpolant(2.0, 6.0, m, "barycentric")
    out_t = eval_rational_at_matrix(thiele, a)
    assert levinson_calls == [(48,)]
    assert len(dense_calls) == 2 * m - 2
    products.clear()
    out_b = eval_rational_at_matrix(bary, a)
    assert len(products) == 3 * m - 2
    for r, out in ((thiele, out_t), (bary, out_b)):
        want = (v * r(w)) @ v.T
        assert np.linalg.norm(to_dense(out) - want, 2) <= 1e-10 * np.linalg.norm(want, 2)


def test_eval_pole_collision():
    r = PartialFraction(poles=(0.75,), residuals=(1.0,))
    with pytest.raises(PoleCollision):
        eval_rational_at_matrix(r, dense_arg(np.eye(4), 0.5, 1.0))


def test_pole_tolerance_follows_c_not_the_width():
    # at [1, 1e12] a tolerance of 1e-10 (d - c) = 100 took the pfd poles at
    # -39, -10.7 and -2.7 for points of [c, d] and rejected every degree from
    # m = 3 on, so auto_degree returned m = 2 with relative error 0.70
    a = _toeplitz_arg("dense", 24, 1e12, seed=5)
    spec = inv_sqrt_spec()
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    res = auto_degree(spec, a, g, "pfd", m_max=6)
    oracle = dense_f_oracle(spec, a.data)
    err = np.linalg.norm(res.approximation.data - oracle, 2) / np.linalg.norm(oracle, 2)
    assert res.m == 6 and res.history[-1][3]
    assert err <= res.history[-1][2] == apriori_bound(g, 6)


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
    # a Toeplitz argument as dense, as its spectrum and in generator form
    col = spd_toeplitz_col(64, 7, diag=0.75)
    col[1:] *= 0.1  # Gershgorin: the spectrum lies in [0.55, 0.95]
    dense = scipy.linalg.toeplitz(col)
    got_dense = residual_sqrt(dense_arg(dense, c, d), r_nu, g)
    got_diag = residual_sqrt(diag_arg(np.linalg.eigvalsh(dense), c, d), r_nu, g)
    got_tl = residual_sqrt(tl_arg(from_toeplitz(col), c, d), r_nu, g)
    assert got_dense == pytest.approx(got_diag, rel=1e-10)
    # the Lanczos value is a lower estimate; the top of a residual's
    # spectrum is a tight cluster, so it lands a few 1e-3 low at most
    assert got_dense * (1.0 - 5e-3) <= got_tl <= got_dense * (1.0 + 1e-6)


@pytest.mark.parametrize("kind", ["dense", "diagonal", "tagged", "untagged"])
def test_deviation_of_two_endpoint_residual_factors(kind):
    # R, A - alpha I, A - beta I, R with [alpha, beta] = [-1, 0], against
    # ||I - prod F|| from dense arithmetic on the same factors
    t = gen_random_spd_toeplitz(64, 1.0, 10.0, 0)
    g = build_geometry(-1.0, 0.0, 1.0, 10.0)
    r_nu = fit_interpolant(worst_case_spec(-1.0, 0.0), optimal_nodes(g, 2), "pfd",
                           interval=(-1.0, 0.0))
    data = {"dense": scipy.linalg.toeplitz(t.toeplitz), "tagged": t,
            "untagged": dataclasses.replace(t, toeplitz=None),
            "diagonal": np.linalg.eigvalsh(scipy.linalg.toeplitz(t.toeplitz))}[kind]
    a = MatArg(data, 1.0, 10.0)
    r = eval_rational_at_matrix(r_nu, a)
    factors = [r, a.ops.shift(data, -1.0), a.ops.shift(data, 0.0), r]
    product = np.eye(64)
    for f in factors:
        product = product @ a.ops.to_dense(f)
    got = a.ops.deviation(factors)
    if kind == "diagonal":
        assert got == np.max(np.abs(np.diag(np.eye(64) - product)))
        return
    exact = np.linalg.norm(np.eye(64) - product, 2)
    assert exact > 1e-6  # well above rounding
    if kind == "dense":
        assert got == pytest.approx(exact, rel=1e-13)
    else:
        assert exact * (1.0 - 1e-3) <= got <= exact * (1.0 + 1e-12)


# ------------------------------------------------------------ aposteriori_bound

def test_aposteriori_requires_more_nodes():
    g, r = markov_interpolant(0.5, 1.0, 3)
    a = diag_arg(cosine_points(0.5, 1.0, 30), 0.5, 1.0)
    with pytest.raises(BoundInvalid):
        aposteriori_bound(a, r, r, g)


def test_aposteriori_invalid_when_reference_too_coarse():
    # eta of r_2's nodes on [1, 1e6] is 0.185 > (sqrt(2) - 1)^2, so delta > 1
    c, d = 1.0, 1e6
    g, r_1 = markov_interpolant(c, d, 1)
    _, r_2 = markov_interpolant(c, d, 2)
    a = diag_arg(cosine_points(c, d, 30), c, d)
    with pytest.raises(BoundInvalid, match="delta"):
        aposteriori_bound(a, r_1, r_2, g)


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
    assert bound >= true
    # fits straight from loewner_pfd carry the same nodes, hence the same bound
    direct = [loewner_pfd([(z, spec(z)) for z in optimal_nodes(g, m)]) for m in (3, 5)]
    assert aposteriori_bound(a, *direct, g) == bound
    # a Toeplitz argument, dense and in generator form
    col = spd_toeplitz_col(64, 11, diag=0.75)
    col[1:] *= 0.1  # Gershgorin: the spectrum lies in [0.55, 0.95]
    lam = np.linalg.eigvalsh(scipy.linalg.toeplitz(col))
    bound = aposteriori_bound(dense_arg(scipy.linalg.toeplitz(col), c, d), r_m, r_mp, g)
    true = np.max(np.abs(1.0 - r_m(lam) * np.sqrt(lam)))
    # r_mp's own error (9e-14 here) enters additively, through the added delta
    assert bound >= true
    # Lanczos reads the tl norm from below, 2e-12 under the true error here
    bound_tl = aposteriori_bound(tl_arg(from_toeplitz(col), c, d), r_m, r_mp, g)
    assert bound * (1.0 - 5e-3) <= bound_tl <= bound * (1.0 + 1e-6)


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


@pytest.mark.parametrize("alpha, gc, gd", [
    pytest.param(-INF, 2.0, 6.0, id="2.0-6.0"),
    pytest.param(-INF, 0.5, 50.0, id="0.5-50.0"),
    pytest.param(-INF, 2.0, 200.0, id="2.0-200.0"),
    # an [alpha, beta] inside the spec's support voids the bounds as well
    pytest.param(-1.0, 1.0, 100.0, id="alpha=-1"),
    pytest.param(-0.01, 1.0, 100.0, id="alpha=-0.01"),
])
def test_auto_degree_rejects_geometry_inside_argument_bounds(alpha, gc, gd):
    a = diag_arg(cosine_points(1.0, 100.0, 40), 1.0, 100.0)
    g = build_geometry(alpha, 0.0, gc, gd)
    with pytest.raises(BoundInvalid):
        auto_degree(inv_sqrt_spec(), a, g, m_max=8)


def test_auto_degree_accepts_looser_geometry():
    # a [c, d] wider than the argument's, or an [alpha, beta] wider than the
    # spec's support, keeps every bound valid, only pessimistic: the
    # accepted degree still meets its a priori bound
    lam = cosine_points(1.0, 100.0, 40)
    a = diag_arg(lam, 1.0, 100.0)
    tight = build_geometry(-INF, 0.0, 1.0, 100.0)
    for loose in (build_geometry(-INF, 0.0, 0.5, 200.0),
                  build_geometry(-INF, 0.5, 1.0, 100.0)):
        res = auto_degree(inv_sqrt_spec(), a, loose, m_max=8)
        err = np.max(np.abs(1.0 - res.approximation.data * np.sqrt(lam)))
        assert err <= apriori_bound(loose, res.m)
        assert apriori_bound(loose, res.m) > apriori_bound(tight, res.m)


def test_auto_degree_tl_reaches_dense_accuracy():
    # log(z)/(z - 1) on spectrum [25, 139.2] at n = 1024: the TL residual
    # must resolve about 2e-13 at m = 7, as the dense one does
    t = gen_random_spd_toeplitz(1024, 25.0, 139.2, 0)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    eigs = np.linalg.eigvalsh(dense)
    spec = log_spec()
    g = build_geometry(spec.alpha, spec.beta, eigs[0], eigs[-1])
    res = auto_degree(spec, tl_arg(t, eigs[0], eigs[-1]), g, "pfd", 12)
    oracle = dense_f_oracle(spec, dense)
    x = res.approximation
    err = np.linalg.norm(x.ops.to_dense(x.data) - oracle, 2) / np.linalg.norm(oracle, 2)
    assert res.m >= 7
    assert err <= 1e-13


@pytest.mark.parametrize("kappa", [1e4, 1e6])
def test_auto_degree_tl_pfd_as_accurate_as_dense(kappa):
    # the tagged inverse's generator is written from A^{-1} e1 without
    # further rounding, so the TL pole sum keeps up with the dense one at
    # high condition numbers
    t = gen_random_spd_toeplitz(128, 1.0, kappa, 0)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    eigs = np.linalg.eigvalsh(dense)
    spec = inv_sqrt_spec()
    g = build_geometry(spec.alpha, spec.beta, eigs[0], eigs[-1])
    oracle = dense_f_oracle(spec, dense)
    errs = []
    for arg in (tl_arg(t, eigs[0], eigs[-1]), dense_arg(dense, eigs[0], eigs[-1])):
        x = auto_degree(spec, arg, g, "pfd", 30).approximation
        errs.append(np.linalg.norm(x.ops.to_dense(x.data) - oracle, 2)
                    / np.linalg.norm(oracle, 2))
    assert errs[0] <= 10.0 * errs[1]


def test_auto_degree_tl_residuals_nonzero_and_seed_independent():
    # SPD Toeplitz matrices with the same spectral interval [1, 2]: the
    # degree follows from the interval, not from rounding in the residual
    n = 512
    spec = inv_sqrt_spec()
    g = build_geometry(-INF, 0.0, 1.0, 2.0)
    degrees = set()
    for seed in range(1, 7):
        rng = np.random.default_rng(seed)
        col = rng.uniform(-1.0, 1.0, n) * (1.0 + np.arange(n)) ** -2
        eigs = np.linalg.eigvalsh(scipy.linalg.toeplitz(col))
        col *= 1.0 / (eigs[-1] - eigs[0])
        col[0] += 1.0 - eigs[0] / (eigs[-1] - eigs[0])
        res = auto_degree(spec, tl_arg(from_toeplitz(col), 1.0, 2.0), g, "pfd", 8)
        assert all(resid > 0.0 for _, resid, _, _ in res.history)
        degrees.add(res.m)
    assert len(degrees) == 1


def test_only_pfd_accurate_at_matrix_arguments():
    # the paper's claim on inv_sqrt, spectrum [25, 139.2], n = 128: pfd meets
    # its a priori bound at its accepted degree on every argument kind, up
    # to the rounding of n-term sums (dense stops at m = 8, where the bound
    # 1.95e-15 is below the rounding floor); barycentric does not
    n = 128
    t = gen_random_spd_toeplitz(n, 25.0, 139.2, 0)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    eigs = np.linalg.eigvalsh(dense)
    c, d = eigs[0], eigs[-1]
    spec = inv_sqrt_spec()
    g = build_geometry(spec.alpha, spec.beta, c, d)
    oracle = dense_f_oracle(spec, dense)
    args = {"dense": (dense_arg(dense, c, d), oracle),
            "diagonal": (diag_arg(eigs, c, d), np.diag(spec(eigs))),
            "tl": (tl_arg(t, c, d), oracle)}
    allowance = n * np.finfo(float).eps
    err = {}
    for rep, kinds in (("pfd", args), ("barycentric", ("dense", "tl"))):
        for kind in kinds:
            a, ref = args[kind]
            res = auto_degree(spec, a, g, rep)
            approx = a.ops.to_dense(res.approximation.data)
            err[rep, kind] = np.linalg.norm(approx - ref, 2) / np.linalg.norm(ref, 2)
            if rep == "pfd":
                assert err[rep, kind] <= apriori_bound(g, res.m) + allowance, kind
    # barycentric stalls at m = 4 on Toeplitz-like arguments (error 2e-7)
    # and stops above the pfd rounding floor on dense ones
    assert err["barycentric", "tl"] >= 1e5 * err["pfd", "tl"]
    assert err["barycentric", "dense"] >= 10.0 * err["pfd", "dense"]


def test_barycentric_running_sums_lose_every_digit_on_toeplitz_like_data():
    # a documented limit: the m = 8 barycentric fit of log(z)/(z - 1) on
    # [1, 100] at n = 32 reads 3.4e2 on Toeplitz-like data, tagged or not,
    # against r on the spectrum, and 2.3e-8 on dense data; Thiele reads
    # 2.5e-12 on tagged data.  The running sums of eval_rational_at_matrix
    # cause it; a fix updates this test, README and CHANGES.md's FOUND line
    t = gen_random_spd_toeplitz(32, 1.0, 100.0, 0)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    w, v = np.linalg.eigh(dense)
    spec = log_spec()
    g = build_geometry(spec.alpha, spec.beta, 1.0, 100.0)
    nodes = optimal_nodes(g, 8)
    err = {}
    for rep in ("barycentric", "thiele"):
        r = fit_interpolant(spec, nodes, rep, interval=(g.alpha, g.beta))
        want = (v * r(w)) @ v.T
        for kind, data in (("dense", dense), ("tagged", t),
                           ("untagged", dataclasses.replace(t, toeplitz=None))):
            a = MatArg(data, 1.0, 100.0)
            got = a.ops.to_dense(eval_rational_at_matrix(r, a))
            err[rep, kind] = spectral_norm(got - want) / spectral_norm(want)
    assert err["barycentric", "dense"] <= 1e-7
    assert err["thiele", "tagged"] <= 1e-10
    assert err["barycentric", "tagged"] >= 1.0 and err["barycentric", "untagged"] >= 1.0


def test_dense_barycentric_log_accepts_m6_on_the_cli_default():
    # a documented limit: on `marktop matfun --case iii` (log, [25, 139.2],
    # n = 256) barycentric accepts m = 6 and rejects m = 7, whose residual
    # 2.3e-12 is above the threshold 8.7e-13.  The running sums
    # S_j = S_{j-1} (A - t_j I) + c_j prod_{k<j} (A - t_k I) by which
    # eval_rational_at_matrix forms the barycentric numerator and
    # denominator are not the whole cause: the prefix and suffix products
    # they replaced read 6.3e-13 at m = 7 and accepted it, but the quotient
    # N(A) D(A)^-1 of the two pole sums reads 1.4e-12 and rejects it too
    t = gen_random_spd_toeplitz(256, 25.0, 139.2, 0)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    eigs = np.linalg.eigvalsh(dense)
    a = dense_arg(dense, eigs[0], eigs[-1])
    spec = log_spec()
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    res = auto_degree(spec, a, g, "barycentric", m_max=7)
    assert res.m == 6 and [h[0] for h in res.history] == list(range(1, 8))
    _, resid, apr, accepted = res.history[-1]
    assert not accepted and resid > 5.0 * apr


def test_run_experiment_rows_match_auto_degree():
    # spectrum [1, 1e12]: 2 rho^2 >= 1, so m = 1 has no a priori bound
    t = gen_random_spd_toeplitz(24, 1.0, 1e12, 5)
    spec = inv_sqrt_spec()
    reps, m_max = ("pfd", "barycentric", "thiele"), 6
    rows = run_experiment(spec, t, "iii", reps, m_max)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    eigs = np.linalg.eigvalsh(dense)
    a = dense_arg(dense, eigs[0], eigs[-1])
    g = build_geometry(-INF, 0.0, a.c, a.d)
    oracle = dense_f_oracle(spec, dense)
    for rep in reps:
        res = auto_degree(spec, a, g, rep, m_max)
        rep_rows = [row for row in rows if row.rep == rep]
        assert rep_rows[0].m == 1 and math.isnan(rep_rows[0].apriori)
        # pfd's history starts at its start degree m0, the rows at m = 1
        for (m, resid, apr, accepted), row in zip(res.history,
                                                  rep_rows[res.history[0][0] - 1:]):
            assert (row.m, row.residual, row.accepted) == (m, resid, accepted)
            if apr is None:
                assert math.isnan(row.apriori)
            else:
                assert row.apriori == apr
        err = np.linalg.norm(res.approximation.data - oracle, 2) / np.linalg.norm(oracle, 2)
        assert rep_rows[res.m - 1].rel_err == pytest.approx(err, rel=1e-12)


@pytest.mark.parametrize("case", ["i", "ii", "iii", "iv"])
def test_run_experiment_tau_is_the_generator_width(case):
    # cases i and ii evaluate in generator form, iii and iv densely / entrywise
    taus = [row.tau for row in run_experiment(inv_sqrt_spec(),
                                              gen_random_spd_toeplitz(16, 1.0, 10.0, 2),
                                              case, reps=("pfd",), m_max=3)]
    assert len(taus) == 3
    if case in ("i", "ii"):
        assert all(tau > 0 for tau in taus)
    else:
        assert taus == [0, 0, 0]


def test_data_picks_the_arithmetic():
    # a 2-D diagonal matrix is dense data, a 1-D array its eigenvalues
    eigs = np.array([1.0, 2.0, 3.0])
    g, r = markov_interpolant(1.0, 3.0, 3)
    dense = eval_rational_at_matrix(r, MatArg(np.diag(eigs), 1.0, 3.0))
    diagonal = eval_rational_at_matrix(r, MatArg(eigs, 1.0, 3.0))
    assert dense.shape == (3, 3) and diagonal.shape == (3,)
    np.testing.assert_allclose(dense, np.diag(diagonal), rtol=1e-13, atol=1e-15)
    res = auto_degree(inv_sqrt_spec(), MatArg(eigs, 1.0, 3.0), g, "pfd", m_max=6)
    np.testing.assert_allclose(res.approximation.data, eigs ** -0.5, rtol=1e-6)


def _kind_args():
    t = gen_random_spd_toeplitz(32, 1.0, 50.0, 3)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    eigs = np.linalg.eigvalsh(dense)
    return {"dense": dense_arg(dense, eigs[0], eigs[-1]),
            "tl": tl_arg(t, eigs[0], eigs[-1]),
            "diagonal": diag_arg(eigs)}


@pytest.mark.parametrize("kind", ["dense", "tl", "diagonal"])
@pytest.mark.parametrize("rep", ["pfd", "barycentric", "thiele"])
def test_auto_degree_evaluates_r_mu_once(rep, kind, monkeypatch):
    # one evaluation per degree inside residual_sqrt (r_nu) and one of r_mu
    # at the returned degree, with the history of the eager sweep over the
    # degrees tried: from m0 for pfd, from 1 otherwise; every case stops at
    # a rejected degree below m_max
    a = _kind_args()[kind]
    spec = inv_sqrt_spec()
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    eval_r = matfun.eval_rational_at_matrix
    calls = []

    def counted(r, arg):
        calls.append(r)
        return eval_r(r, arg)

    monkeypatch.setattr(matfun, "eval_rational_at_matrix", counted)
    res = auto_degree(spec, a, g, rep, m_max=20)
    monkeypatch.undo()
    assert not res.not_triggered
    assert len(calls) == len(res.history) + 1
    r_mu = fit_interpolant(spec, optimal_nodes(g, res.m), rep,
                           interval=(spec.alpha, spec.beta))
    assert _same_data(res.approximation.data, eval_rational_at_matrix(r_mu, a))
    start = _m0(g, a.n, 20) if rep == "pfd" else 1
    assert res.history[0][0] == start and (start > 1) == (rep == "pfd")
    eager = degree_sweep(spec, a, g, rep, range(start, res.history[-1][0] + 1),
                         lambda r: eval_rational_at_matrix(r, a))
    assert res.history == _rows(eager)


@pytest.mark.parametrize("run", [
    lambda a, g: auto_degree(inv_sqrt_spec(), a, g, "pfd", m_max=0),
    lambda a, g: log_via_scaling(a, "pfd", m_max=0),
    lambda a, g: frac_power(a, -0.3, "pfd", m_max=0),
    lambda a, g: list(degree_sweep(inv_sqrt_spec(), a, g, "pfd", [2, 0], None)),
], ids=["auto_degree", "log_via_scaling", "frac_power", "degree_sweep"])
def test_degrees_below_1_rejected(run):
    a = _kind_args()["dense"]
    g = build_geometry(-INF, 0.0, a.c, a.d)
    with pytest.raises(InvalidInterval, match="degrees must be >= 1"):
        run(a, g)


_M_MAX_DRIVERS = {"log": lambda a, m_max: log_via_scaling(a, "pfd", m_max),
                  "power-minus-0.7": lambda a, m_max: frac_power(a, -0.7, "pfd", m_max),
                  "power-2": lambda a, m_max: frac_power(a, 2.0, "pfd", m_max)}


@pytest.mark.parametrize("m_max", [0, 20.0, 7.5])
@pytest.mark.parametrize("kind", ["tl", "dense"])
@pytest.mark.parametrize("driver", list(_M_MAX_DRIVERS))
def test_drivers_check_m_max_before_any_square_root(driver, kind, m_max, dense_calls,
                                                     monkeypatch):
    # the check comes first: no Newton root and no densification before it,
    # also for an integral exponent, which fits nothing
    roots = []
    monkeypatch.setattr(matfun, "sqrt_db_newton", roots.append)
    t = gen_random_spd_toeplitz(64, 1.0, 1e4, 0)
    a = (tl_arg(t, 1.0, 1e4) if kind == "tl"
         else dense_arg(scipy.linalg.toeplitz(t.toeplitz), 1.0, 1e4))
    with pytest.raises(InvalidInterval, match="degrees must be >= 1 and integers"):
        _M_MAX_DRIVERS[driver](a, m_max)
    assert roots == [] and dense_calls == []


def test_tl_arithmetic_is_the_tlalgebra_module(monkeypatch):
    # perfbench and the fixtures wrap tlalgebra's functions by name after
    # import, so matfun must look them up on the module at call time
    from marktop import tlalgebra
    a = _kind_args()["tl"]
    assert a.ops is tlalgebra
    calls = {}
    for name in ("matvec", "shifted_inverses", "norm_est"):
        def counting(*args, _name=name, _fn=getattr(tlalgebra, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(tlalgebra, name, counting)
    auto_degree(inv_sqrt_spec(), a, build_geometry(-INF, 0.0, a.c, a.d), "pfd", 6)
    assert sorted(calls) == ["matvec", "norm_est", "shifted_inverses"], calls


def test_degree_sweep_rejects_unknown_representation_before_fitting(monkeypatch):
    a = _kind_args()["dense"]
    g = build_geometry(-INF, 0.0, a.c, a.d)
    monkeypatch.setattr(matfun, "fit_interpolant", None)  # never reached
    with pytest.raises(DimensionError, match="unknown representation 'bary'"):
        next(degree_sweep(inv_sqrt_spec(), a, g, "bary", range(1, 3), None))


def test_auto_degree_rejects_degree_with_pole_in_interval(monkeypatch):
    # a pfd r_mu with a pole in [c, d] still rejects its degree; at m0 that
    # restarts the search one degree lower, whose sweep stops at m0 again
    a = _kind_args()["dense"]
    spec = inv_sqrt_spec()
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    m0 = _m0(g, a.n, 6)
    assert m0 > 2
    fit = matfun.fit_interpolant

    def bad_pole(s, nodes, rep, interval=None):
        r = fit(s, nodes, rep, interval=interval)
        if s is spec and len(nodes) == 2 * m0:
            return PartialFraction((a.c + 1.0,), (1.0,))
        return r

    monkeypatch.setattr(matfun, "fit_interpolant", bad_pole)
    res = auto_degree(spec, a, g, "pfd", m_max=6)
    assert res.m == m0 - 1
    assert res.history[-1][0] == m0 and res.history[-1][1] == INF and not res.history[-1][3]
    assert res.history == _sweep_from_one(spec, a, g, "pfd", 6)[2][m0 - 2:]


def test_start_degree_counts_invalid_bounds_as_above_the_floor():
    # at [1, 1e40] 2 rho^(2m) >= 1 up to m = 3
    g = build_geometry(-INF, 0.0, 1.0, 1e40)
    for m in (1, 2, 3):
        with pytest.raises(BoundInvalid):
            apriori_bound(g, m)
    assert matfun._start_degree(g, "pfd", 32, 3) == 3


def _m0(g, n, m_max):
    """The warm start's first degree by its rule: the largest m <= m_max
    whose a priori bound is at least 1e3 n eps or invalid, else 1."""
    def above_floor(m):
        try:
            return apriori_bound(g, m) >= 1e3 * n * np.finfo(float).eps
        except BoundInvalid:
            return True
    return max((m for m in range(1, m_max + 1) if above_floor(m)), default=1)


def _rows(records):
    return tuple((rec.m, rec.residual, rec.apriori, rec.accepted) for rec in records)


def _sweep_from_one(spec, a, g, rep, m_max):
    """(m, r_m(A), rows) of stop-one-before over degree_sweep from m = 1,
    the search without a warm start."""
    records, prev = [], None
    for rec in degree_sweep(spec, a, g, rep, range(1, m_max + 1), lambda r: r):
        records.append(rec)
        if not rec.accepted:
            break
        prev = rec
    return prev.m, eval_rational_at_matrix(prev.value, a), _rows(records)


def _same_data(x, y):
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return np.array_equal(x.G, y.G) and np.array_equal(x.B, y.B)


def _toeplitz_arg(kind, n, kappa, seed=0):
    t = gen_random_spd_toeplitz(n, 1.0, kappa, seed)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    eigs = np.linalg.eigvalsh(dense)
    return tl_arg(t, eigs[0], eigs[-1]) if kind == "tl" else dense_arg(dense, eigs[0], eigs[-1])


_SPECS = {"inv_sqrt": inv_sqrt_spec, "log": log_spec, "pow-0.3": lambda: power_spec(-0.3)}


@pytest.mark.parametrize("spec_name", list(_SPECS))
@pytest.mark.parametrize("kappa", [10.0, 1e2, 1e4])
@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("kind", ["tl", "dense"])
def test_warm_start_returns_the_sweep_from_one(kind, n, kappa, spec_name):
    # the sweep from m0 returns the degree and the r(A) of the sweep from 1,
    # and its history is the tail of that sweep's rows
    a = _toeplitz_arg(kind, n, kappa)
    spec = _SPECS[spec_name]()
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    m, want, rows = _sweep_from_one(spec, a, g, "pfd", 20)
    res = auto_degree(spec, a, g, "pfd", m_max=20)
    assert res.m == m and _same_data(res.approximation.data, want)
    assert res.history[0][0] == _m0(g, a.n, 20) > 1
    assert res.history == rows[res.history[0][0] - 1:]


@pytest.mark.parametrize("case", ["m_max-1", "kappa-1e12", "floor-at-2",
                                  "barycentric", "thiele"])
def test_warm_start_edge_cases(case):
    rep, m_max = "pfd", 6
    if case == "m_max-1":
        a, m_max = _toeplitz_arg("dense", 32, 1e2), 1
    elif case == "kappa-1e12":
        # no a priori bound at m = 1; m0 = m_max = 6 is accepted, so the
        # search tries that one degree
        a = _toeplitz_arg("dense", 24, 1e12, seed=5)
    elif case == "floor-at-2":
        # [1, 1.001]: 8 rho^4 = 1.2e-16 is below 1e3 n eps already at m = 2
        a = diag_arg(np.linspace(1.0, 1.001, 32))
    else:
        a, rep = _toeplitz_arg("dense", 32, 1e2), case
    spec = inv_sqrt_spec()
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    m0 = matfun._start_degree(g, rep, a.n, m_max)
    assert m0 == (_m0(g, a.n, m_max) if rep == "pfd" else 1)
    if case == "kappa-1e12":
        with pytest.raises(BoundInvalid):
            apriori_bound(g, 1)
        assert m0 == 6
    elif rep != "pfd":
        assert matfun._start_degree(g, "pfd", a.n, m_max) > 1
    else:
        assert m0 == 1
    m, want, rows = _sweep_from_one(spec, a, g, rep, m_max)
    res = auto_degree(spec, a, g, rep, m_max)
    assert res.m == m and _same_data(res.approximation.data, want)
    if case == "kappa-1e12":
        assert res.m == 6 and len(res.history) == 1 and res.history == rows[5:]
    else:
        assert res.history == rows and res.history[0][0] == 1


def test_rejection_at_m0_restarts_one_degree_lower(monkeypatch):
    # a residual forced above the threshold once, at m0, restarts the search
    # at m0 - 1, whose sweep passes m0 this time and ends where the sweep
    # from m = 1 ends
    a = _toeplitz_arg("tl", 32, 1e2)
    spec = inv_sqrt_spec()
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    m0 = _m0(g, a.n, 20)
    m, want, rows = _sweep_from_one(spec, a, g, "pfd", 20)
    residual, tried = matfun.residual_sqrt, []

    def first_fails(arg, r_nu, geom):
        tried.append(len(r_nu.nodes) // 2)
        return INF if len(tried) == 1 else residual(arg, r_nu, geom)

    monkeypatch.setattr(matfun, "residual_sqrt", first_fails)
    res = auto_degree(spec, a, g, "pfd", m_max=20)
    assert tried[0] == m0 > 1 and tried[1:] == list(range(m0 - 1, m + 2))
    assert res.m == m and _same_data(res.approximation.data, want)
    assert res.history == rows[m0 - 2:]


@pytest.mark.parametrize("kind", ["tl", "dense"])
def test_natural_rejection_at_m0_steps_down(kind, residual_calls):
    # at kappa = 1e10 the fits fail to form from some m below m0 = 20 on:
    # each start above it is rejected inside the scalar fit, and the first
    # start that forms is accepted; its sweep stops one degree higher, so
    # the search makes two residual evaluations where the sweep from m = 1
    # makes m + 1 and returns the same degree and r(A)
    t = gen_random_spd_toeplitz(256, 1.0, 1e10, 0)
    a = tl_arg(t, 1.0, 1e10) if kind == "tl" else dense_arg(to_dense(t), 1.0, 1e10)
    spec = inv_sqrt_spec()
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    m, want, _ = _sweep_from_one(spec, a, g, "pfd", 20)
    residual_calls.clear()
    res = auto_degree(spec, a, g, "pfd", m_max=20)
    assert res.m == m < _m0(g, a.n, 20)
    assert _same_data(res.approximation.data, want)
    assert [row[0] for row in res.history] == [m, m + 1]
    assert len(residual_calls) <= 2


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


def test_newton_raises_when_the_residual_stalls_above_tol():
    # the residual stalls near 4e-16: no root meets tol, so none is returned
    a = tl_arg(gen_random_spd_toeplitz(32, 1.0, 100.0, 0), 1.0, 100.0)
    with pytest.raises(NoConvergence, match="after 25 iterations"):
        sqrt_db_newton(a, tol=1e-300)


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
    # A^0 is shift(scale(A, 0), -1): exactly I on every kind, tagged where A
    # is, and an untagged generator of I where A is untagged
    t = gen_random_spd_toeplitz(16, 1.0, 1e2, 0)
    w = np.linalg.eigvalsh(to_dense(t))
    for data, tag in ((t, np.eye(16)[0]), (dataclasses.replace(t, toeplitz=None), None),
                      (to_dense(t), None), (w, None)):
        a = MatArg(data, w[0], w[-1])
        res = frac_power(a, 0.0)
        assert res.scaling == (0, 0, 0.0) and res.m == 0
        assert np.array_equal(a.ops.to_dense(res.approximation.data), np.eye(16))
        assert np.array_equal(getattr(res.approximation.data, "toeplitz", None), tag)


def test_frac_power_integral_exponent_is_not_multiplied_by_identity():
    # an integral gamma gives ell = 0, so gamma = 1 returns A itself, still tagged
    col = spd_toeplitz_col(32, 44)
    a = tl_arg(from_toeplitz(col), 2.0, 6.0)
    res = frac_power(a, 1.0)
    assert res.scaling == (0, 1, 0.0)
    assert res.approximation.data is a.data
    assert np.array_equal(res.approximation.data.toeplitz, col)


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
    err = np.linalg.norm(to_dense(res.approximation.data) - want, 2)
    assert err <= 1e-10 * np.linalg.norm(want, 2)


def test_frac_power_large_integral_exponent_by_squaring():
    # gamma = 1e9 is one integral power, taken in O(log gamma) products;
    # its condition number is gamma, so 1e9 eps bounds the rounding
    lam = np.array([1.0, 1.0 + 1e-12])
    want = lam ** 1e9
    for a in (diag_arg(lam), dense_arg(np.diag(lam), lam[0], lam[1])):
        res = frac_power(a, 1e9)
        assert res.scaling == (0, 10 ** 9, 0.0)
        got = np.diag(a.ops.to_dense(res.approximation.data))
        np.testing.assert_allclose(got, want, rtol=1e9 * np.finfo(float).eps)


@pytest.mark.parametrize("gamma", [1.0, -1.0, 2.0, -2.0])
@pytest.mark.parametrize("kind", ["tl", "dense", "diagonal"])
def test_frac_power_integral_exponent_takes_no_square_root(kind, gamma):
    # an integral gamma needs no interpolant, so ell = 0: three square roots
    # and three squarings read 8.6e-8 for A^1 and 1.7e-7 for A^2 at kappa = 1e6
    t = gen_random_spd_toeplitz(256, 1.0, 1e6, 0)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    w, v = np.linalg.eigh(dense)
    a = {"tl": tl_arg(t, w[0], w[-1]), "dense": dense_arg(dense, w[0], w[-1]),
         "diagonal": diag_arg(w)}[kind]
    res = frac_power(a, gamma)
    assert res.scaling == (0, gamma, 0.0)
    want = (v * w ** gamma) @ v.T if kind != "diagonal" else np.diag(w ** gamma)
    err = np.linalg.norm(a.ops.to_dense(res.approximation.data) - want, 2) / np.linalg.norm(want, 2)
    assert err <= 1e-9, err
    if gamma == 1.0:
        assert res.approximation.data is a.data


# ----------------------------------------------- tagged Toeplitz arguments

_TAGGED_CASES = {"log": (log_via_scaling, log_spec(), np.log),
                 "power-0.3": (lambda a: frac_power(a, 0.3), power_spec(-0.7),
                               lambda w: w ** 0.3),
                 "power-minus-0.7": (lambda a: frac_power(a, -0.7), power_spec(-0.7),
                                     lambda w: w ** -0.7)}


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
@pytest.mark.parametrize("case", list(_TAGGED_CASES))
def test_tagged_drivers_stay_tagged(case, kappa, levinson_calls, dense_calls, monkeypatch):
    # ell = 0 and f(A) as one pole sum plus a constant: no Newton root, no
    # densification, and the final f(A) passes its m poles to one
    # shifted_inverses call, which makes at most one Levinson solve per pole
    driver, spec, f = _TAGGED_CASES[case]
    calls = []  # (shifts, Levinson solves) of each shifted_inverses call
    shifted_inverses = tlalgebra.shifted_inverses

    def counting(a, shifts):
        before = len(levinson_calls)
        out = shifted_inverses(a, shifts)
        calls.append((len(shifts), len(levinson_calls) - before))
        return out

    monkeypatch.setattr(tlalgebra, "shifted_inverses", counting)
    t = gen_random_spd_toeplitz(256, 1.0, kappa, 0)
    a = tl_arg(t, 1.0, kappa)
    res = driver(a)
    assert res.scaling[0] == 0
    assert dense_calls == []
    shifts, solves = calls[-1]
    assert shifts == res.m and solves <= res.m
    g = build_geometry(spec.alpha, spec.beta, 1.0, kappa)
    assert matfun._accepted_fit(spec, a, g, "pfd", 20).m == res.m
    w, v = np.linalg.eigh(scipy.linalg.toeplitz(t.toeplitz))
    want = (v * f(w)) @ v.T
    err = np.linalg.norm(to_dense(res.approximation.data) - want, 2) / np.linalg.norm(want, 2)
    assert err <= (1e-11 if kappa <= 1e4 else 1e-9), err


@pytest.mark.parametrize("gamma, bound", [(0.97, 1e-3), (-0.03, 1e-6)])
def test_tagged_power_near_an_integer_stops_at_the_compress_floor(gamma, bound):
    # a documented limit: on the pole-sum route A^0.97 and A^-0.03 at
    # kappa = 1e4 read 7.9e-5 and 8.2e-8 (m = 18), against 2.3e-10 and
    # 8.5e-11 with square roots on the same matrix untagged.  The fit of
    # z^-0.03 has residuals up to 5e6 for a result of norm about 1, and
    # compress's floor is relative to the stacked panels of that sum, not
    # to its displacement (ROADMAP item 14): the same fit's pole sum reads
    # 5.5e-13 and 4.8e-14 in dense arithmetic, and a floor relative to the
    # displacement gives 2.7e-11 and 7.0e-14 on the route
    t = gen_random_spd_toeplitz(256, 1.0, 1e4, 0)
    res = frac_power(tl_arg(t, 1.0, 1e4), gamma)
    assert res.scaling[0] == 0
    w, v = np.linalg.eigh(scipy.linalg.toeplitz(t.toeplitz))
    want = (v * w ** gamma) @ v.T
    err = np.linalg.norm(to_dense(res.approximation.data) - want, 2) / np.linalg.norm(want, 2)
    assert err <= bound, err


@pytest.mark.parametrize("spec, s", [(log_spec(), 1.0), (power_spec(-0.7), 0.0)],
                         ids=["log", "power"])
def test_shifted_pole_sum_is_the_product(spec, s):
    # (A - sI) r(A) on diagonal, dense and untagged Toeplitz-like data: a pfd
    # r gives the pole sum, equal to the scalar oracle (w - s) r(w) on the
    # spectrum; a barycentric or Thiele r gives the product itself
    col = gen_random_spd_toeplitz(32, 1.0, 100.0, 0).toeplitz
    dense = scipy.linalg.toeplitz(col)
    w, v = np.linalg.eigh(dense)
    untagged = dataclasses.replace(from_toeplitz(col), toeplitz=None)
    g = build_geometry(spec.alpha, spec.beta, 1.0, 100.0)
    for rep in ("pfd", "barycentric", "thiele"):
        r = fit_interpolant(spec, optimal_nodes(g, 8), rep, interval=(spec.alpha, spec.beta))
        for data, tol in ((w, 1e-13), (dense, 1e-12), (untagged, 1e-12)):
            a = MatArg(data, w[0], w[-1])
            got = a.ops.to_dense(matfun._times_shift(r, a, s))
            if rep != "pfd":
                product = a.ops.multiply(a.ops.shift(data, s), eval_rational_at_matrix(r, a))
                assert np.array_equal(got, a.ops.to_dense(product)), (rep, type(data))
                continue
            want = (v * ((w - s) * r(w))) @ v.T if data is not w else np.diag((w - s) * r(w))
            err = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
            assert err <= tol, (type(data), err)


def test_pole_sum_route_needs_tagged_data_and_a_pfd_fit_at_the_start_degree():
    col = gen_random_spd_toeplitz(32, 1.0, 100.0, 0).toeplitz
    eigs = np.linalg.eigvalsh(scipy.linalg.toeplitz(col))
    untagged = dataclasses.replace(from_toeplitz(col), toeplitz=None)
    for data, rep, route in ((from_toeplitz(col), "pfd", True),
                             (from_toeplitz(col), "barycentric", False),
                             (from_toeplitz(col), "thiele", False),
                             (untagged, "pfd", False),
                             (scipy.linalg.toeplitz(col), "pfd", False),
                             (eigs, "pfd", False)):
        assert matfun._pole_sum_route(log_spec(), MatArg(data, 1.0, 100.0), rep, 20) is route
    # on [1, 1e8] the log fit's Loewner pencil is singular from m = 12 on,
    # below the start degree 20, while the m = 4 fit still forms
    wide = MatArg(from_toeplitz(col), 1.0, 1e8)
    assert not matfun._pole_sum_route(log_spec(), wide, "pfd", 20)
    assert matfun._pole_sum_route(log_spec(), wide, "pfd", 4)


@pytest.mark.parametrize("driver, f, kappa, scaling, tol", [
    (lambda a: log_via_scaling(a, "barycentric"), np.log, 1e4, (2, 0, None), 1e-7),
    (lambda a: frac_power(a, 0.3, "barycentric"), lambda w: w ** 0.3, 1e4, (2, 2, -0.8), 1e-8),
    (lambda a: frac_power(a, 1.5), lambda w: w ** 1.5, 1e4, (2, 6, 0.0), 1e-8),
    (lambda a: frac_power(a, -1.5), lambda w: w ** -1.5, 1e4, (2, -6, 0.0), 1e-8),
    (log_via_scaling, np.log, 1e8, (3, 0, None), 1e-6)],
    ids=["log-barycentric", "power-0.3-barycentric", "power-1.5", "power-minus-1.5",
         "log-wide"])
def test_tagged_arguments_off_the_pole_sum_route_keep_the_square_roots(driver, f, kappa,
                                                                       scaling, tol):
    # at ell = 0 these would fit r over the whole [1, kappa] and multiply, or
    # stop early: barycentric log read 4.4e-2, A^1.5 1.8e-6, and pfd log on
    # [1, 1e8] 2.3e-5 (its fit stops at m = 11), against 1.8e-8, 4.1e-10 and
    # 2.9e-7 with square roots
    t = gen_random_spd_toeplitz(128, 1.0, kappa, 0)
    res = driver(tl_arg(t, 1.0, kappa))
    assert res.scaling[:2] == scaling[:2]
    assert res.scaling[2] == pytest.approx(scaling[2], abs=1e-12)
    w, v = np.linalg.eigh(scipy.linalg.toeplitz(t.toeplitz))
    want = (v * f(w)) @ v.T
    err = np.linalg.norm(to_dense(res.approximation.data) - want, 2) / np.linalg.norm(want, 2)
    assert err <= tol, err


@pytest.mark.parametrize("driver", [log_via_scaling, lambda a: frac_power(a, -0.7)],
                         ids=["log", "frac_power"])
def test_drivers_return_the_arguments_bounds(driver):
    # the approximation carries A's [c, d], not those of A^(1/2^ell) or A^gamma
    res = driver(diag_arg(np.linspace(1.0, 100.0, 20)))
    assert res.scaling[0] >= 1
    assert (res.approximation.c, res.approximation.d) == (1.0, 100.0)


# ------------------------------------------------------------- dense kernels

@pytest.mark.parametrize("n", [1, 7, 96])
def test_spectral_norm_matches_svd(n):
    x = np.random.default_rng(n).standard_normal((n, n))
    assert spectral_norm(x) == pytest.approx(np.linalg.norm(x, 2), rel=1e-13)


def test_spectral_norm_at_rounding_floor_zero_and_nonfinite():
    x = np.random.default_rng(0).standard_normal((40, 40))
    x *= 1e-14 / np.linalg.norm(x, 2)
    assert spectral_norm(x) == pytest.approx(np.linalg.norm(x, 2), rel=1e-13)
    assert spectral_norm(np.zeros((5, 5))) == 0.0
    bad = np.eye(4)
    bad[1, 2] = np.nan
    assert spectral_norm(bad) == INF
    bad[1, 2] = INF
    assert spectral_norm(bad) == INF
    # a nonfinite residual operator reads inf, so its degree is rejected
    ops = dense_arg(np.eye(4), 1.0, 1.0).ops
    assert ops.deviation([np.full((4, 4), np.nan)]) == INF


def test_dense_inverse_matches_solve():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 50))
    for m in (x, x + x.T + 20.0 * np.eye(50)):  # nonsymmetric and SPD
        inv = dense_arg(m, 1.0, 1.0).ops.invert(m)
        want = np.linalg.solve(m, np.eye(50))
        assert np.linalg.norm(inv - want, 2) <= 1e-12 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("kind", ["dense", "tl"])
def test_singular_inverse_raises_singular_matrix(kind):
    a = (dense_arg(np.zeros((3, 3)), 1.0, 2.0) if kind == "dense"
         else tl_arg(from_toeplitz(np.zeros(3)), 1.0, 2.0))
    with pytest.raises(SingularMatrix):
        sqrt_db_newton(a)


# the Markov function of dx on [0, 0.5], whose support reaches alpha = 0
_LOG_ON_0_HALF = custom_spec(lambda z: np.log(z / (z - 0.5)) / 0.5, 0.0, 0.5)


@pytest.mark.parametrize("kind", ["diag", "dense", "tl"])
@pytest.mark.parametrize("rep", ["pfd", "barycentric", "thiele"])
def test_markov_function_supported_on_zero_to_beta_is_accepted(rep, kind):
    n = 64
    t = gen_random_spd_toeplitz(n, 1.0, 10.0, 0)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    a = {"diag": diag_arg(np.linalg.eigvalsh(dense), 1.0, 10.0),
         "dense": dense_arg(dense, 1.0, 10.0), "tl": tl_arg(t, 1.0, 10.0)}[kind]
    g = build_geometry(0.0, 0.5, 1.0, 10.0)
    res = auto_degree(_LOG_ON_0_HALF, a, g, rep, m_max=12)
    assert res.m >= 4
    if rep == "pfd":
        got = a.ops.to_dense(res.approximation.data)
        want = (np.diag(_LOG_ON_0_HALF(a.data)) if kind == "diag"
                else dense_f_oracle(_LOG_ON_0_HALF, dense))
        err = spectral_norm(got - want) / spectral_norm(want)
        assert err <= apriori_bound(g, res.m) + 64 * n * np.finfo(float).eps


@pytest.mark.parametrize("rep", ["pfd", "barycentric", "thiele"])
def test_nonfinite_function_values_make_the_sweep_reject_every_degree(rep):
    spec = custom_spec(lambda z: np.where(np.asarray(z) > 5, np.nan, 1 / np.sqrt(z)),
                       -INF, 0.0)
    a = diag_arg(cosine_points(1.0, 10.0, 32))
    with pytest.raises(DegreeUnavailable):
        auto_degree(spec, a, build_geometry(-INF, 0.0, 1.0, 10.0), rep, m_max=6)

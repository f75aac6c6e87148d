"""Acceptance criteria for the full pipeline, one test per criterion.

Each test prints a short PASS summary line so a -s run doubles as an
acceptance report.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from marktop import (MarktopError, apriori_bound, blaschke_eta,
                     build_geometry, check_hankel_definiteness, custom_spec,
                     dense_arg, fit_interpolant, frac_power, inv_sqrt_spec,
                     log_spec, log_via_scaling, optimal_nodes, power_spec,
                     sqrt_db_newton, thiele_fit, tl_arg, worst_case_spec)
from marktop.experiments import (cosine_points, dense_f_oracle,
                                 gen_random_spd_toeplitz, laplacian1d,
                                 scalar_scan)
from marktop.matfun import auto_degree, eval_rational_at_matrix
from marktop.tlalgebra import (add, compress, from_toeplitz, invert, matvec,
                               multiply, shift, to_dense)

INF = float("inf")
EPS = np.finfo(float).eps


def fit_with_fallback(f, nodes, interval):
    """PFD fit, falling back to the Thiele form when the Loewner pencil
    degenerates at rounding level (the representations coincide in exact
    arithmetic, so either one witnesses the bound)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fit_interpolant(f, nodes, "pfd", interval=interval)
        except MarktopError:
            return fit_interpolant(f, nodes, "thiele", interval=interval)


def test_criterion_1_scalar_fig1():
    t0 = time.perf_counter()
    targets = {0.5: 1e-11, 1e-3: 1e-10, 1e-6: 1e-9}
    spec = inv_sqrt_spec()
    for c, target in targets.items():
        g = build_geometry(-INF, 0.0, c, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = scalar_scan(spec, c, 1.0, range(1, 36),
                               ("pfd", "barycentric", "thiele"))
        for rep in ("pfd", "barycentric", "thiele"):
            mine = [r for r in rows if r.rep == rep]
            best = min(r.rel_err for r in mine if np.isfinite(r.rel_err))
            assert best <= target, (c, rep, best)
            for r in mine:
                if r.accepted and np.isfinite(r.apriori):
                    assert r.rel_err <= r.apriori + 1e-12, (c, rep, r.m)
    wall = time.perf_counter() - t0
    assert wall < 30.0
    print(f"criterion 1 PASS ({wall:.1f} s)")


def test_criterion_2_bound_chain():
    checked = 0
    for cross in (4.0, 100.0, 1e5):
        c = 1.0 / cross
        g = build_geometry(-INF, 0.0, c, 1.0)
        grid = cosine_points(500, c, 1.0)
        fz = grid ** -0.5
        for m in range(1, 21):
            if 2.0 * g.rho ** (2 * m) >= 0.5:
                continue
            nodes = optimal_nodes(g, m)
            eta = blaschke_eta(g, nodes)
            assert eta <= min(g.lam ** (2 * m), 2.0 * g.rho ** (2 * m)) + 1e-10
            r = fit_with_fallback(lambda z: z ** -0.5, nodes, (-INF, 0.0))
            err = np.max(np.abs(1.0 - r(grid) / fz))
            assert err <= 4.0 * eta / (1.0 - eta) ** 2 + 1e-10, (cross, m, err)
            checked += 1
    print(f"criterion 2 PASS ({checked} (cross, m) pairs)")


def test_criterion_3_thiele_positivity_closed_form():
    # stage-2 reciprocal differences of 1/sqrt(z) are sqrt(z_k) + sqrt(z_1)
    for nodes in (np.array([1.0, 4.0, 9.0, 16.0]),
                  np.linspace(0.3, 2.0, 8),
                  optimal_nodes(build_geometry(-INF, 0.0, 0.5, 1.0), 3)):
        nodes = np.asarray(nodes)
        cf = thiele_fit([(z, z ** -0.5) for z in nodes], keep_table=True)
        z1 = cf.nodes[0]
        stage2 = np.asarray(cf.table[1])
        want = np.sqrt(np.asarray(cf.nodes[1:])) + math.sqrt(z1)
        assert np.max(np.abs(stage2 / want - 1.0)) <= 1e-10
    # positivity for every accepted degree across the catalog
    catalog = [(inv_sqrt_spec(), 0.0), (log_spec(), 0.0),
               (power_spec(-0.5), 0.0), (worst_case_spec(-1.0, 0.0), 0.0)]
    for spec, beta in catalog:
        g = build_geometry(spec.alpha, beta, 0.5, 2.0)
        for m in range(1, 9):
            if apriori_bound(g, m) < 1e-12:
                break
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cf = thiele_fit([(z, float(spec(z)))
                                 for z in optimal_nodes(g, m)])
            assert cf.positive, (spec.f, m)
    print("criterion 3 PASS")


def test_criterion_4_backward_stability_envelope():
    # slow-convergence interval keeps fits away from the rounding floor
    g = build_geometry(-INF, 0.0, 1e-3, 1.0)
    checked = 0
    for m in (2, 5, 10, 15, 20):
        nodes = optimal_nodes(g, m)
        big_m = len(nodes)
        assert big_m <= 40
        cf = thiele_fit([(z, z ** -0.5) for z in nodes])
        if not cf.positive:
            continue
        envelope = 10.0 * 3.0 * big_m * EPS / (1.0 - 3.0 * big_m ** 2 * EPS)
        for z in nodes:
            rz = cf(z)
            assert abs(rz - z ** -0.5) / abs(rz) <= envelope, (m, z)
        checked += 1
    assert checked >= 4
    print(f"criterion 4 PASS ({checked} positive fits)")


def test_criterion_5_hankel_definiteness():
    t0 = time.perf_counter()
    catalog = [inv_sqrt_spec(), log_spec(), power_spec(-0.5),
               worst_case_spec(-1.0, 0.0)]
    for spec in catalog:
        for offset in (0.5, 1.0, 10.0):
            ok = check_hankel_definiteness(spec, spec.beta + offset, 6)
            assert ok, (spec.f, offset)
    # f(z) = z is not a Markov function and must fail
    poly = custom_spec(lambda z: np.asarray(z), -1.0, 0.0)
    assert not check_hankel_definiteness(poly, 2.0, 6)
    wall = time.perf_counter() - t0
    assert wall < 1.0
    print(f"criterion 5 PASS ({wall * 1000:.0f} ms)")


@pytest.mark.parametrize("n", [64, 256])
def test_criterion_6_tl_oracle_equivalence(n):
    for seed in range(20):
        a = gen_random_spd_toeplitz(n, 1.0, 50.0, seed)
        dense = scipy.linalg.toeplitz(a.toeplitz)
        scale_t = np.max(np.abs(a.toeplitz))
        assert np.max(np.abs(to_dense(a) - dense)) <= 1e-13 * scale_t
        rng = np.random.default_rng(1000 + seed)
        v = rng.standard_normal(n)
        want = dense @ v
        assert np.max(np.abs(matvec(a, v) - want)) <= 1e-12 * np.linalg.norm(want)
        inv = invert(a)
        cond = np.linalg.cond(dense)
        assert np.max(np.abs(to_dense(inv) - np.linalg.inv(dense))) <= 1e-8 * cond
        b = gen_random_spd_toeplitz(n, 1.0, 20.0, 500 + seed)
        assert compress(a).width <= 2
        assert compress(add(a, b)).width <= 4
        assert multiply(a, b).width <= 5
        assert inv.width <= 2
    print(f"criterion 6 PASS (n={n}, 20 seeds)")


@pytest.mark.parametrize("cond", [1e2, 1e4])
def test_criterion_7_newton_sqrt(cond):
    n = 256
    t = gen_random_spd_toeplitz(n, 1.0, cond, 11)
    bm = scipy.linalg.toeplitz(t.toeplitz)
    res = sqrt_db_newton(dense_arg(bm, 1.0, cond), tol=1e-13)
    x = res.x.data
    target = 1e-10 if cond <= 1e2 else 1e-8
    err = np.linalg.norm(x @ x - bm, 2) / np.linalg.norm(bm, 2)
    assert err <= target
    floor = 50.0 * n * EPS
    r = res.residuals
    for k in range(max(res.phase2_start, 0), len(r) - 1):
        assert r[k + 1] <= max(r[k] ** 2 / 3.0 * 1.5, floor)
    print(f"criterion 7 PASS (cond={cond:g}, err={err:.2e})")


def test_criterion_8_end_to_end_log_over_zm1():
    t0 = time.perf_counter()
    n = 256
    spec = log_spec()
    t = gen_random_spd_toeplitz(n, 1.0, 120.0, 5)  # cond ~ 120
    dense = scipy.linalg.toeplitz(t.toeplitz)
    c, d = 1.0, 120.0
    g = build_geometry(-INF, 0.0, c, d)
    arg = tl_arg(t, c, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = auto_degree(spec, arg, g, rep="pfd", m_max=20)
    oracle = dense_f_oracle(spec, dense)
    oracle_norm = np.linalg.norm(oracle, 2)
    x = res.approximation
    err = np.linalg.norm(x.ops.to_dense(x.data) - oracle, 2) / oracle_norm
    assert err <= 1e-9, err
    # no accepted index may exceed its a priori bound against the oracle
    for m, _resid, apr, accepted in res.history:
        if not accepted or apr is None:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = fit_interpolant(spec, optimal_nodes(g, m), "pfd",
                                interval=(-INF, 0.0))
        approx = arg.ops.to_dense(eval_rational_at_matrix(r, arg))
        err_m = np.linalg.norm(approx - oracle, 2) / oracle_norm
        assert err_m <= apr + 1e-12, (m, err_m, apr)
    wall = time.perf_counter() - t0
    assert wall < 60.0
    print(f"criterion 8 PASS (m={res.m}, err={err:.2e}, {wall:.1f} s)")


def test_criterion_9_frac_power_laplacian():
    n = 127
    t = laplacian1d(n)
    dense = scipy.linalg.toeplitz(t.toeplitz)
    ev = np.linalg.eigvalsh(dense)
    c, d = float(ev[0]), float(ev[-1])
    w, v = np.linalg.eigh(dense)
    want = v @ np.diag(w ** (-1.0 / 3.0)) @ v.T
    # inverse scaling and squaring on the dense argument; the tagged one
    # keeps ell = 0 and returns the pole sum r(A) with k = 0
    for arg, scaling in ((dense_arg(dense, c, d), (2, -1)), (tl_arg(t, c, d), (0, 0))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = frac_power(arg, -1.0 / 3.0, rep="pfd")
        assert res.scaling[0] == scaling[0]
        assert res.scaling[1] == scaling[1]
        assert res.scaling[2] == pytest.approx(-1.0 / 3.0)
        x = res.approximation
        err = np.linalg.norm(x.ops.to_dense(x.data) - want, 2) / np.linalg.norm(want, 2)
        assert err <= 1e-8, err
        print(f"criterion 9 PASS (scaling={res.scaling}, err={err:.2e})")


def test_criterion_10_performance_smoke(levinson_calls, dense_calls, compress_widths):
    # FFT matvec at n = 2^17 with a width-2 generator
    n = 1 << 17
    rng = np.random.default_rng(3)
    col = rng.uniform(-1.0, 1.0, n) * 0.5 ** np.minimum(np.arange(n), 60)
    col[0] = 2.0
    a = from_toeplitz(col)
    v = rng.standard_normal(n)
    matvec(a, v)  # warm the FFT machinery
    t0 = time.perf_counter()
    matvec(a, v)
    wall = time.perf_counter() - t0
    assert wall < 1.0
    # PFD at m = 10, n = 4096: no dense n x n intermediate may appear
    n2 = 4096
    col2 = rng.uniform(-1.0, 1.0, n2) * 0.25 ** np.minimum(np.arange(n2), 60)
    col2[0] = 2.0
    # Gershgorin keeps the spectrum inside [1.5, 2.5]: bounds are certain.
    # Deliberately loose bounds keep m = 10 in the convergent regime (tight
    # bounds put it far past stagnation, where fits degenerate by design).
    rad = 2.0 * np.sum(np.abs(col2[1:]))
    assert rad <= 0.5
    c, d = 1e-4, 4.0
    g = build_geometry(-INF, 0.0, c, d)
    m = 10
    r = fit_with_fallback(lambda z: z ** -0.5, optimal_nodes(g, m), (-INF, 0.0))
    arg = tl_arg(from_toeplitz(col2), c, d)
    out = eval_rational_at_matrix(r, arg)
    assert dense_calls == []
    tau_a = 2
    peak_width = max(compress_widths)
    assert peak_width <= 2 * m * (tau_a + 1), compress_widths
    assert out.width <= 2 * m * (tau_a + 1)
    # a shifted SPD inverse at n = 4096: one Levinson recursion, no densifying
    shifted = shift(from_toeplitz(col2), -1.0)
    levinson_calls.clear()
    t0 = time.perf_counter()
    inv = invert(shifted)
    inv_wall = time.perf_counter() - t0
    assert dense_calls == []
    assert levinson_calls == [(n2,)]
    v = rng.standard_normal(n2)
    back = matvec(shifted, matvec(inv, v))
    assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)
    print(f"criterion 10 PASS (matvec {wall * 1000:.0f} ms, "
          f"peak width {peak_width}, invert {inv_wall * 1000:.0f} ms)")

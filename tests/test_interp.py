"""Rational interpolant constructors and evaluators."""

import math
import warnings

import numpy as np
import pytest

from marktop import (Barycentric, Breakdown, DimensionError, InvalidInterval,
                     PartialFraction, PencilError, PoleHit, RankDeficiency,
                     ThieleCF, apriori_bound, barycentric_fit, build_geometry,
                     fit_interpolant, interp_error_scan, inv_sqrt_spec,
                     loewner_pfd, optimal_nodes, thiele_fit)

INF = float("inf")


def cosine_grid(c, d, n=500):
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    return 0.5 * (c + d) + 0.5 * (d - c) * np.cos(theta)


# ---------------------------------------------------------------- loewner_pfd

def test_loewner_m1_inv_z():
    # L = -1/2, L_s = 0 -> pole 0, residual 1
    pfd = loewner_pfd([(1.0, 1.0), (2.0, 0.5)])
    assert pfd.poles[0] == pytest.approx(0.0, abs=1e-14)
    assert pfd.residuals[0] == pytest.approx(1.0, abs=1e-13)
    assert pfd(1.0) == pytest.approx(1.0)
    assert pfd(2.0) == pytest.approx(0.5)


def test_loewner_exact_degree_0_1():
    a, x = 2.0, -3.0
    f = lambda z: a / (z - x)
    pfd = loewner_pfd([(1.0, f(1.0)), (2.5, f(2.5))])
    assert pfd.poles[0] == pytest.approx(x, rel=1e-12)
    assert pfd.residuals[0] == pytest.approx(a, rel=1e-12)


def test_loewner_m3_inv_sqrt_interpolates():
    g = build_geometry(-INF, 0.0, 0.5, 1.0)
    nodes = optimal_nodes(g, 3)
    samples = [(z, 1.0 / math.sqrt(z)) for z in nodes]
    pfd = loewner_pfd(samples)
    resid = max(abs(1.0 - pfd(z) / fz) for z, fz in samples)
    assert resid <= 1e-12


def test_loewner_pfd_structure_for_markov_data():
    # poles inside (alpha, beta) = (-inf, 0), residuals positive
    g = build_geometry(-INF, 0.0, 0.5, 2.0)
    for m in (1, 2, 4, 6):
        nodes = optimal_nodes(g, m)
        pfd = loewner_pfd([(z, z ** -0.5) for z in nodes], interval=(-INF, 0.0))
        assert all(x < 0.0 for x in pfd.poles)
        assert all(a > 0.0 for a in pfd.residuals)


def test_loewner_sample_count_check():
    with pytest.raises(InvalidInterval):
        # an [m-1|m] fit takes an even number 2m of samples
        loewner_pfd([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)])


# ------------------------------------------------------------ barycentric_fit

def test_barycentric_m1m_inv_z_recovery():
    r = barycentric_fit([(1.0, 1.0), (2.0, 0.5)])
    assert r(3.0) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_barycentric_m3_inv_sqrt_interpolates():
    g = build_geometry(-INF, 0.0, 0.5, 1.0)
    nodes = optimal_nodes(g, 3)
    samples = [(z, 1.0 / math.sqrt(z)) for z in nodes]
    r = barycentric_fit(samples)
    # the interior (non-support) nodes are interpolated through the nullspace
    # solve; the support nodes are exact by construction
    interior = set(nodes) - set(r.support)
    assert interior
    for z in interior:
        assert abs(1.0 - r(z) / z ** -0.5) <= 1e-12


def test_barycentric_degree_condition():
    # extra equation sum f(t_j) beta_j = 0 pins the numerator degree to m-1
    g = build_geometry(-INF, 0.0, 0.5, 1.0)
    nodes = optimal_nodes(g, 3)
    r = barycentric_fit([(z, z ** -0.5) for z in nodes])
    ft = np.asarray(r.values)
    w = np.asarray(r.weights)
    assert abs(np.dot(ft, w)) <= 1e-12 * np.linalg.norm(ft * w)


def test_barycentric_sample_count_check():
    with pytest.raises(InvalidInterval):
        # an [m-1|m] fit takes an even number 2m of samples
        barycentric_fit([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)])


@pytest.mark.parametrize("m", [1, 3])
def test_barycentric_all_zero_data_is_zero(m):
    # the system is zero: any nullspace vector is a weight vector, r = 0
    r = barycentric_fit([(z, 0.0) for z in np.linspace(1.0, 2.0, 2 * m)])
    assert np.array_equal(r(np.linspace(0.5, 3.0, 51)), np.zeros(51))


def test_fit_interpolant_of_all_zero_data():
    # the interpolation-residual check skips zero samples, here all of them
    nodes = optimal_nodes(build_geometry(-INF, 0.0, 1.0, 10.0), 3)
    r = fit_interpolant(lambda z: 0 * z, nodes, "barycentric")
    assert np.array_equal(r(np.linspace(1.0, 10.0, 7)), np.zeros(7))
    with pytest.raises(PencilError):
        fit_interpolant(lambda z: 0 * z, nodes, "pfd")
    with pytest.raises(Breakdown):
        fit_interpolant(lambda z: 0 * z, nodes, "thiele")


# ----------------------------------------------------------------- thiele_fit

def test_thiele_sqrt_params():
    # the fit of 1/sqrt(z) on {1, 4, 9} expands sqrt(z): parameters (1, 3, 5)
    samples = [(z, 1.0 / math.sqrt(z)) for z in (1.0, 4.0, 9.0)]
    cf = thiele_fit(samples)
    assert np.allclose(cf.params, (1.0, 3.0, 5.0), atol=1e-12)
    assert cf.positive


def test_thiele_eval_102_27():
    # the convergent is 102/27 at z = 16, and the fit returns its reciprocal
    cf = ThieleCF(nodes=(1.0, 4.0, 9.0), params=(1.0, 3.0, 5.0), positive=True)
    assert cf(16.0) == pytest.approx(27.0 / 102.0, rel=1e-15)


def test_thiele_constant_breakdown():
    with pytest.raises(Breakdown):
        thiele_fit([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)])


def test_thiele_reciprocal_requires_nonzero():
    with pytest.raises(Breakdown):
        thiele_fit([(1.0, 0.0), (2.0, 1.0)])


def test_thiele_reciprocal_positive_for_markov():
    g = build_geometry(-INF, 0.0, 0.5, 2.0)
    for m in (1, 2, 4, 6):
        nodes = optimal_nodes(g, m)
        cf = thiele_fit([(z, z ** -0.5) for z in nodes])
        assert cf.positive
        for z in nodes:
            assert cf(z) == pytest.approx(z ** -0.5, rel=1e-9)


# ----------------------------------------------------------------- evaluation

def test_pfd_eval_and_pole_hit():
    pfd = PartialFraction(poles=(0.0,), residuals=(1.0,))
    assert pfd(4.0) == pytest.approx(0.25)
    with pytest.raises(PoleHit):
        pfd(0.0)


def test_barycentric_constant_eval():
    r = Barycentric(support=(1.0, 2.0), weights=(0.3, -0.7),
                    values=(5.0, 5.0))
    assert r(10.0) == pytest.approx(5.0, rel=1e-14)
    assert r(1.0) == 5.0  # on-support exact


def test_barycentric_on_support_exact_for_arrays():
    # each support point of a 2-D input takes its own value, off-support ones
    # the quotient of sums
    r = Barycentric(support=(1.0, 2.0, 3.0), weights=(0.5, -1.0, 0.5),
                    values=(1.0, 0.25, 1.0 / 9.0))
    z = np.array([[2.0, 1.0, 1.5], [3.0, 2.0, 1.0]])
    out = r(z)
    assert out.shape == (2, 3)
    assert out[0, 0] == out[1, 1] == 0.25
    assert out[0, 1] == out[1, 2] == 1.0
    assert out[1, 0] == 1.0 / 9.0
    assert out[0, 2] == pytest.approx(r(1.5)) and np.isfinite(out[0, 2])


# ------------------------------------------------------------ degree exactness

@pytest.mark.parametrize("rep", ["pfd", "barycentric", "thiele"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degree_exactness(rep, seed):
    # any r in R_{m-1,m} with real poles and positive residuals is recovered
    rng = np.random.default_rng(seed)
    m = 3
    poles = np.sort(-rng.uniform(0.5, 5.0, size=m))
    res = rng.uniform(0.5, 2.0, size=m)
    target = PartialFraction(tuple(poles), tuple(res))
    nodes = np.linspace(1.0, 3.0, 2 * m)
    r = fit_interpolant(target, nodes, representation=rep)
    grid = cosine_grid(1.0, 3.0, 200)
    err, _ = interp_error_scan(target, r, grid)
    assert err <= 1e-11


@pytest.mark.parametrize("m", [2, 4, 6])
def test_representation_agreement(m):
    g = build_geometry(-INF, 0.0, 1e-3, 1.0)
    if apriori_bound(g, m) < 1e-10:
        pytest.skip("past the comparison regime")
    nodes = optimal_nodes(g, m)
    f = lambda z: np.asarray(z, dtype=float) ** -0.5
    grid = cosine_grid(1e-3, 1.0, 500)
    vals = {}
    for rep in ("pfd", "barycentric", "thiele"):
        vals[rep] = fit_interpolant(f, nodes, representation=rep)(grid)
    tol = max(1e-10, 50.0 * apriori_bound(g, m))
    fz = f(grid)
    for a in ("pfd", "barycentric"):
        for b in ("barycentric", "thiele"):
            assert np.max(np.abs(vals[a] - vals[b]) / np.abs(fz)) <= tol


# ------------------------------------------------------------------- scanning

def test_scan_exact_recovery_is_zero():
    target = PartialFraction((-3.0,), (2.0,))
    r = fit_interpolant(target, (1.0, 2.0), representation="pfd")
    err, _ = interp_error_scan(target, r, np.linspace(1.0, 4.0, 100))
    assert err <= 1e-13


def test_scan_below_apriori_bound():
    g = build_geometry(-INF, 0.0, 0.5, 1.0)
    m = 4
    spec = inv_sqrt_spec()
    r = fit_interpolant(spec, optimal_nodes(g, m), representation="pfd")
    err, arg = interp_error_scan(spec, r, cosine_grid(0.5, 1.0, 500))
    assert err <= apriori_bound(g, m)
    assert 0.5 <= arg <= 1.0


def test_fit_interpolant_warns_on_bad_residual():
    # rounding-limited fit past stagnation emits a warning, not an error
    g = build_geometry(-INF, 0.0, 1e-6, 1.0)
    nodes = np.linspace(1e-6, 1.0, 4)  # poor nodes for a hard interval
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        fit_interpolant(lambda z: z ** -0.5, nodes, representation="thiele")


def test_fit_interpolant_calls_f_once_on_the_node_array():
    g = build_geometry(-INF, 0.0, 0.5, 1.0)
    nodes = optimal_nodes(g, 4)
    spec = inv_sqrt_spec()
    seen = []

    def f(z):
        seen.append(z)
        return spec(z)

    # each fit is its representation and records the 2m nodes it interpolates
    for rep, kind in (("pfd", PartialFraction), ("barycentric", Barycentric),
                      ("thiele", ThieleCF)):
        seen.clear()
        r = fit_interpolant(f, nodes, rep)
        assert len(seen) == 1 and np.array_equal(seen[0], nodes)
        assert type(r) is kind
        assert len(r.nodes) == 8 and sorted(r.nodes) == list(nodes)
    with pytest.raises(DimensionError, match="unknown representation 'bary'"):
        fit_interpolant(f, nodes, "bary")
    assert len(seen) == 1  # rejected before sampling f

import dataclasses
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import marktop
from marktop.approx import (apriori_bound, blaschke_eta, build_geometry,
                            condenser_rate, cross_ratio, disk_error_bound,
                            moebius_T, moebius_T_inv, optimal_nodes, phi,
                            phi_inv, relative_error_bound, stopping_threshold)
from marktop.errors import (BoundInvalid, DegenerateCondenser, DomainError,
                            InvalidInterval)
from marktop.markov import custom_spec

INF = math.inf


def test_geometry_half_line_example():
    g = build_geometry(-INF, 0.0, 1.0, 4.0)
    assert cross_ratio(-INF, 0.0, 1.0, 4.0) == pytest.approx(4.0)
    assert g.k == pytest.approx(0.5, abs=1e-14)
    assert g.lam == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)


def test_geometry_unbounded_d_example():
    g = build_geometry(-1.0, 0.0, 1.0, INF)
    assert g.k == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
    t = 2.0 ** -0.25
    assert g.lam == pytest.approx((1.0 - t) / (1.0 + t), abs=1e-10)


def test_degenerate_and_invalid():
    with pytest.raises(DegenerateCondenser):
        build_geometry(-INF, 0.0, 1.0, 1.0)
    # too narrow for double precision: k = 1/sqrt(1 + 2^-52) rounds to 1
    with pytest.raises(DegenerateCondenser):
        build_geometry(-INF, 0.0, 1.0, 1.0 + 2.0 ** -52)
    with pytest.raises(InvalidInterval):
        build_geometry(0.0, -1.0, 1.0, 2.0)
    with pytest.raises(InvalidInterval):
        build_geometry(-INF, 2.0, 1.0, 4.0)
    with pytest.raises(DegenerateCondenser):
        cross_ratio(-INF, 0.0, 1.0, INF)


@pytest.mark.parametrize("ratio", [1 + 1e-6, 1.0001, 1.0008, 1.001, 1.003,
                                   1.01, 1.1, 10.0, 1e4])
def test_condenser_rate_against_mpmath(ratio):
    # a narrow [c, d] gives a small lambda, whose complementary modulus
    # sqrt(1 - lambda^4) is 1 to double precision
    g = build_geometry(-INF, 0.0, 1.0, ratio)
    with mpmath.workdps(50):
        p = mpmath.mpf(g.lam) ** 4  # the parameter of the modulus lambda^2
        want = mpmath.exp(-mpmath.pi * mpmath.ellipk(1 - p) / (4 * mpmath.ellipk(p)))
    assert g.rho == condenser_rate(g.lam)
    assert g.rho == pytest.approx(float(want), rel=1e-12)


# The geometry depends on the endpoints only through their cross ratio, so
# beta = 0 and c = 1 lose no generality.
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(finite_alpha=st.booleans(), log_gap=st.floats(-2.0, 4.0),
       log_width=st.floats(-6.0, 8.0), m=st.integers(1, 20))
def test_nodes_ordered_and_eta_within_calibrated_rate(finite_alpha, log_gap,
                                                      log_width, m):
    alpha = -(10.0 ** log_gap) if finite_alpha else -INF
    g = build_geometry(alpha, 0.0, 1.0, 1.0 + 10.0 ** log_width)
    nodes = np.array(optimal_nodes(g, m))
    assert np.all(np.diff(nodes) > 0.0)
    assert g.c < nodes[0] and nodes[-1] < g.d
    two_rho = 2.0 * g.rho ** (2 * m)
    assume(two_rho >= 1e-300)
    assert blaschke_eta(g, nodes) <= two_rho * (1.0 + 1e-3)


@pytest.mark.parametrize("geo", [(-INF, 0.0, 1.0, 4.0), (-1.0, 0.0, 0.5, 2.0),
                                 (-2.0, -1.0, 1.0, INF)])
def test_moebius_pins_four_points(geo):
    g = build_geometry(*geo)
    assert moebius_T(g, -1.0) == pytest.approx(g.alpha, rel=1e-12) or \
        (math.isinf(g.alpha) and math.isinf(moebius_T(g, -1.0)))
    assert moebius_T(g, 1.0) == pytest.approx(g.beta, abs=1e-12)
    assert moebius_T(g, 1.0 / g.kappa) == pytest.approx(g.c, rel=1e-12)
    td = moebius_T(g, -1.0 / g.kappa)
    if math.isinf(g.d):
        # -1/kappa is the pole preimage; rounding of the argument turns the
        # exact infinity into a huge finite value
        assert math.isinf(td) or abs(td) > 1e12
    else:
        assert td == pytest.approx(g.d, rel=1e-12)


def test_moebius_roundtrip():
    g = build_geometry(-1.0, 0.0, 0.5, 2.0)
    assert moebius_T_inv(g, moebius_T(g, 0.3)) == pytest.approx(0.3, abs=1e-14)


def test_phi_endpoint_values_and_roundtrip():
    g = build_geometry(-INF, 0.0, 1.0, 4.0)
    assert phi(g, g.c) == pytest.approx(1.0 / g.lam, rel=1e-12)
    assert phi(g, g.d) == pytest.approx(-1.0 / g.lam, rel=1e-12)
    for z in np.linspace(1.0, 4.0, 17):
        assert phi_inv(g, phi(g, z)) == pytest.approx(z, rel=1e-12)
    with pytest.raises(DomainError):
        phi(g, -1.0)


@pytest.mark.parametrize("alpha", [-INF, -1.0])
def test_phi_inv_at_infinity_is_the_limit_of_T(alpha):
    # w = +-inf makes y = +-inf, where T takes its single limit
    g = build_geometry(alpha, 0.0, 0.5, 2.0)
    want = moebius_T(g, INF)
    assert phi_inv(g, INF) == phi_inv(g, -INF) == want
    assert phi_inv(g, 1e300) == pytest.approx(want, rel=1e-12)


def test_phi_T_identity_on_grid():
    g = build_geometry(-2.0, -1.0, 1.0, 5.0)
    for z in np.linspace(1.0, 5.0, 11):
        w = phi(g, z)
        assert moebius_T(g, (w + 1.0 / w) / 2.0) == pytest.approx(z, rel=1e-12)


def test_optimal_nodes_w_symmetry_m1():
    g = build_geometry(-INF, 0.0, 1.0, 4.0)
    z1, z2 = optimal_nodes(g, 1)
    assert 1.0 / phi(g, z1) == pytest.approx(-1.0 / phi(g, z2), rel=1e-10)


def test_optimal_nodes_trigonometric_limit():
    # lambda -> 0: sn(K(0) t, 0) = sin(pi t / 2)
    g = build_geometry(-INF, 0.0, 1.0, 1.0 + 1e-6)
    m = 3
    u = np.sort([1.0 / phi(g, z) for z in optimal_nodes(g, m)])
    j = np.arange(1, 2 * m + 1)
    want = np.sort(g.lam * np.sin(np.pi / 2.0 * (-1.0 + (2.0 * j - 1.0) / (2.0 * m))))
    assert u == pytest.approx(want, rel=1e-7)


# (alpha, beta) = (-inf, 0) keeps the ids "m-ratio"; finite pairs add a suffix
@pytest.mark.parametrize("m,ratio,alpha,beta", [
    pytest.param(m, ratio, alpha, beta, id=f"{m}-{ratio}{suffix}")
    for alpha, beta, suffix in [(-INF, 0.0, ""), (-1.0, 0.0, "-a-1-b0"),
                                (-100.0, -1.0, "-a-100-b-1")]
    for ratio in [4.0, 1e2, 1e5] for m in [1, 2, 5, 10]])
def test_eta_beats_pade_rates(m, ratio, alpha, beta):
    g = build_geometry(alpha, beta, 1.0, ratio)
    eta = blaschke_eta(g, optimal_nodes(g, m))
    assert eta <= g.lam ** (2 * m) + 1e-12
    assert eta <= 2.0 * g.rho ** (2 * m) + 1e-12


def test_eta_single_point_pade_rate():
    g = build_geometry(-INF, 0.0, 1.0, 4.0)
    m = 3
    z_pade = moebius_T(g, INF)
    eta = blaschke_eta(g, [z_pade] * (2 * m))
    assert eta == pytest.approx(g.lam ** (2 * m), rel=1e-8)


def test_eta_two_point_pade_rate():
    g = build_geometry(-INF, 0.0, 1.0, 4.0)
    m = 3
    eta = blaschke_eta(g, [g.c] * m + [g.d] * m)
    assert eta == pytest.approx(g.lam ** (2 * m), rel=1e-8)


def test_eta_grid_oracle_agreement():
    # independent dense-grid maximization of the Blaschke product
    g = build_geometry(-INF, 0.0, 1.0, 100.0)
    nodes = optimal_nodes(g, 3)
    ws = np.array([phi(g, z) for z in nodes])
    zs = np.linspace(g.c, g.d, 200001)
    w = np.array([phi(g, z) for z in zs])
    prod = np.ones_like(w)
    for wj in ws:
        prod *= np.abs((w - wj) / (1.0 - w * wj))
    assert blaschke_eta(g, nodes) == pytest.approx(float(np.max(prod)), rel=1e-6)


@pytest.mark.parametrize("trans", [lambda z: 2.0 * z + 3.0,
                                   lambda z: -1.0 / (z - 10.0)])
def test_eta_moebius_invariance(trans):
    g1 = build_geometry(-1.0, 0.0, 1.0, 4.0)
    nodes = optimal_nodes(g1, 3)
    pts = [trans(p) for p in (-1.0, 0.0, 1.0, 4.0)]
    g2 = build_geometry(*pts)
    eta1 = blaschke_eta(g1, nodes)
    eta2 = blaschke_eta(g2, [trans(z) for z in nodes])
    assert eta2 == pytest.approx(eta1, rel=1e-9)


def test_apriori_formula_and_validity():
    g = build_geometry(-INF, 0.0, 1.0, 4.0)
    m = 4
    t = g.rho ** (2 * m)
    assert apriori_bound(g, m) == pytest.approx(8.0 * t / (1.0 - 2.0 * t) ** 2)
    assert stopping_threshold(g, m) == pytest.approx(5.0 * apriori_bound(g, m))
    tiny_rho = dataclasses.replace(g, rho=1e-8 ** (1.0 / (2 * m)))
    assert apriori_bound(tiny_rho, m) == pytest.approx(8e-8, rel=1e-6)
    big_rho = dataclasses.replace(g, rho=0.99)  # 2 rho^(2m) >= 1
    with pytest.raises(BoundInvalid):
        apriori_bound(big_rho, m)


def test_apriori_monotone():
    g = build_geometry(-INF, 0.0, 1.0, 1e4)
    vals = [apriori_bound(g, m) for m in range(2, 15)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_relative_error_bound_formulas():
    g = build_geometry(-INF, 0.0, 1.0, 4.0)
    nodes = optimal_nodes(g, 2)
    eta = blaschke_eta(g, nodes)
    assert relative_error_bound(g, nodes, positive_case=True) == pytest.approx(4.0 * eta)
    assert relative_error_bound(g, nodes) == pytest.approx(4.0 * eta / (1.0 - eta) ** 2)


def test_disk_error_bound():
    spec = custom_spec(lambda z: 1.0 / np.sqrt(np.asarray(z) + 2.0), -4.0, -2.0)
    # empty node list: bound equals the constant C = 3 f(-1) = 3
    assert disk_error_bound(spec, []) == pytest.approx(3.0, rel=1e-12)
    # nodes all 0 with multiplicity 2m: max over [-4,-2] of |1/z|^(2m) = 2^(-2m)
    for m in (1, 2):
        got = disk_error_bound(spec, [0.0] * (2 * m))
        assert got == pytest.approx(3.0 * 0.5 ** (2 * m), rel=1e-3)
    # alpha = -inf: C again without nodes; two nodes at -0.9 give factors
    # (0.9|z| - 1)/(|z| - 0.9) rising on [-inf, -2] to their limit 0.9
    spec = custom_spec(lambda z: 1.0 / np.sqrt(np.asarray(z) + 2.0), -INF, -2.0)
    assert disk_error_bound(spec, []) == 3.0
    assert disk_error_bound(spec, [-0.9, -0.9]) == pytest.approx(3.0 * 0.81, rel=1e-14)
    bad = custom_spec(lambda z: 1.0 / np.asarray(z), -2.0, -1.0)
    with pytest.raises(DomainError):
        disk_error_bound(bad, [0.0, 0.0])


def test_import_does_not_load_scipy_optimize():
    # the import and the argument set-up that the benchmark's setup_s times
    # load no public scipy subpackage besides linalg and special, and eta,
    # the a posteriori bound and `marktop nodes` load none either
    code = """
import contextlib, io, sys, numpy as np, marktop
from marktop import cli

def public():
    loaded = {m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}
    return {m for m in loaded if not m.startswith('_')} - {'version'}

assert 'scipy.optimize' not in sys.modules, 'loaded at import'
col = np.array([2.0, 0.5, 0.1])
marktop.tl_arg(marktop.from_toeplitz(col), 1.0, 3.0)
a = marktop.dense_arg(np.eye(3), 1.0, 1.0)
g = marktop.build_geometry(-float('inf'), 0.0, 1.0, 3.0)
assert public() == {'linalg', 'special'}, sorted(public())
marktop.blaschke_eta(marktop.build_geometry(-1.0, 0.0, 1.0, 4.0), [2.0])
assert 'scipy.optimize' not in sys.modules, 'loaded by blaschke_eta'
marktop.relative_error_bound(g, marktop.optimal_nodes(g, 2))
assert 'scipy.optimize' not in sys.modules, 'loaded by relative_error_bound'
r_m, r_mp = (marktop.fit_interpolant(marktop.inv_sqrt_spec(), marktop.optimal_nodes(g, m),
                                     'pfd', interval=(g.alpha, g.beta)) for m in (2, 3))
marktop.aposteriori_bound(a, r_m, r_mp, g)
assert 'scipy.optimize' not in sys.modules, 'loaded by aposteriori_bound'
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(['nodes', '--alpha=-inf', '--beta', '0', '--c', '1', '--d', '4',
                     '--m', '3']) == 0
assert 'scipy.optimize' not in sys.modules, 'loaded by marktop nodes'
assert public() == {'linalg', 'special'}, sorted(public())
"""
    src = os.path.dirname(os.path.dirname(marktop.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

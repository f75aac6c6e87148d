import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.special

from marktop.approx import build_geometry, optimal_nodes
from marktop.errors import DimensionError, DomainError, InvalidInterval
from marktop.interp import fit_interpolant
from marktop.markov import (check_hankel_definiteness, custom_spec, eval_markov,
                            hankel_matrix, inv_sqrt_spec, log_spec, power_spec,
                            taylor_coeffs, worst_case_spec)

CATALOG = [inv_sqrt_spec(), log_spec(), power_spec(-0.5), power_spec(-1.0),
           worst_case_spec(-math.inf, 0.0), worst_case_spec(-1.0, 0.0),
           power_spec(-0.01)]


def test_inv_sqrt_value():
    assert eval_markov(inv_sqrt_spec(), 4.0) == pytest.approx(0.5, abs=1e-15)


def test_log_removable_singularity():
    assert eval_markov(log_spec(), 1.0) == pytest.approx(1.0, abs=1e-15)
    # continuity across the removable point
    assert eval_markov(log_spec(), 1.0 + 1e-9) == pytest.approx(1.0 - 0.5e-9, rel=1e-6)


def test_worst_case_values():
    assert eval_markov(worst_case_spec(-math.inf, 0.0), 4.0) == pytest.approx(0.5)
    assert eval_markov(worst_case_spec(-1.0, 0.0), 3.0) == pytest.approx(1.0 / math.sqrt(12.0))


def test_worst_case_invalid_interval():
    with pytest.raises(InvalidInterval):
        worst_case_spec(0.0, -1.0)


def test_domain_error_below_beta():
    with pytest.raises(DomainError):
        eval_markov(inv_sqrt_spec(), -1.0)
    with pytest.raises(DomainError):
        eval_markov(worst_case_spec(-1.0, 0.0), 0.0)


@pytest.mark.parametrize("spec", CATALOG)
def test_positive_strictly_decreasing(spec):
    z = spec.beta + np.concatenate([10.0 ** np.arange(-4.0, 7.0), [0.5, 2.5]])
    z.sort()
    vals = np.asarray(eval_markov(spec, z))
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_worst_case_identity():
    z = np.linspace(0.5, 50.0, 40)
    nu = worst_case_spec(-2.0, 0.25)
    f = np.asarray(eval_markov(nu, z + 0.25))
    ident = f ** 2 * ((z + 0.25) + 2.0) * ((z + 0.25) - 0.25)
    assert np.max(np.abs(ident - 1.0)) < 1e-13
    nu_inf = worst_case_spec(-math.inf, 0.25)
    f = np.asarray(eval_markov(nu_inf, z + 0.25))
    assert np.max(np.abs(f ** 2 * z - 1.0)) < 1e-13


def test_worst_case_identity_with_alpha_zero():
    z = np.linspace(0.6, 50.0, 40)
    f = np.asarray(eval_markov(worst_case_spec(0.0, 0.5), z))
    assert np.max(np.abs(f ** 2 * z * (z - 0.5) - 1.0)) < 1e-13


def test_power_gamma_validation():
    with pytest.raises(InvalidInterval):
        power_spec(0.5)
    with pytest.raises(InvalidInterval):
        power_spec(-1.5)


def test_hankel_matrix_trivial_entries():
    spec = inv_sqrt_spec()
    assert hankel_matrix(spec, 1.0, 0, 0) == pytest.approx(np.array([[1.0]]))
    assert hankel_matrix(spec, 1.0, 0, 1) == pytest.approx(np.array([[-0.5]]))


@pytest.mark.parametrize("n, ell", [(-1, 0), (0, -1)])
def test_hankel_matrix_negative_size_rejected(n, ell):
    with pytest.raises(DimensionError, match="nonnegative"):
        hankel_matrix(log_spec(), 1.0, n, ell)


def test_hankel_worst_case_determinant():
    h = hankel_matrix(worst_case_spec(-1.0, 0.0), 2.0, 1, 0)
    assert h.shape == (2, 2)
    assert np.linalg.det(h) > 0.0


def test_taylor_log_against_mpmath():
    import mpmath
    for z0, count, rel in [(2.0, 8, 1e-11), (1.85, 14, 1e-9)]:
        coeffs = taylor_coeffs(log_spec(), z0, count)
        oracle = mpmath.taylor(lambda z: mpmath.log(z) / (z - 1), z0, count - 1)
        for got, want in zip(coeffs, oracle):
            assert got == pytest.approx(float(want), rel=rel), z0


def test_taylor_custom_against_closed_form():
    z0, j = 3.0, np.arange(14)
    want = scipy.special.binom(-0.5, j) * z0 ** (-0.5 - j)
    # an array evaluator, and a scalar one called entry by entry
    for evaluator in (lambda z: 1.0 / np.sqrt(z), lambda z: 1.0 / cmath.sqrt(z)):
        spec = custom_spec(evaluator, -math.inf, 0.0)
        assert taylor_coeffs(spec, z0, 14) == pytest.approx(want, rel=1e-9)
        calls = []

        def counted(z, f=evaluator):
            calls.append(np.ndim(z))
            return f(z)

        assert check_hankel_definiteness(custom_spec(counted, -math.inf, 0.0), z0, 8)
        # one Taylor expansion serves H^(0) and H^(1): one call on the circle
        assert calls.count(1) == 1


@pytest.mark.parametrize("evaluator", [lambda z: 1.0 / math.sqrt(z),
                                       lambda z: 1.0 / np.sqrt(np.asarray(z, dtype=float)),
                                       lambda z: 1.0 / np.sqrt(np.real(z))],
                         ids=["math", "cast", "real-part"])
def test_real_only_evaluator_rejected(evaluator):
    spec = custom_spec(evaluator, -math.inf, 0.0)
    assert spec(4.0) == 0.5
    with pytest.raises(DomainError, match="complex z"):
        taylor_coeffs(spec, 2.0, 5)
    with pytest.raises(DomainError, match="complex z"):
        check_hankel_definiteness(spec, 2.0, 4)


def test_complex_evaluator_real_on_the_axis():
    # cmath returns complex values, with imaginary part 0 at real z > beta
    spec = custom_spec(lambda z: 1.0 / cmath.sqrt(z), -math.inf, 0.0)
    out = spec(np.array([1.0, 4.0]))
    assert out.dtype == np.float64 and np.array_equal(out, [1.0, 0.5])
    assert spec(4.0) == 0.5
    nodes = optimal_nodes(build_geometry(-math.inf, 0.0, 1.0, 10.0), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from a real cast
        r = fit_interpolant(spec, nodes, "pfd", interval=(-math.inf, 0.0))
    want = fit_interpolant(inv_sqrt_spec(), nodes, "pfd", interval=(-math.inf, 0.0))
    assert r(2.0) == pytest.approx(want(2.0), rel=1e-14)


def test_complex_evaluator_off_the_axis_rejected():
    # 1/sqrt(z - 2) is imaginary on (0, 2): not a function on (beta, inf)
    spec = custom_spec(lambda z: 1.0 / np.sqrt(z - 2.0 + 0j), -math.inf, 0.0)
    for z in (1.0, np.array([3.0, 1.0])):
        with pytest.raises(DomainError, match="must be real"):
            spec(z)
    assert spec(np.array([3.0, 6.0])) == pytest.approx([1.0, 0.5])


def test_nonfinite_evaluator_on_the_circle_rejected():
    # nan beyond |z| = 2.5 lies on the circle |z - 2| = 1.6 of the coefficients
    spec = custom_spec(lambda z: np.where(abs(z) > 2.5, np.nan, 1 / np.sqrt(z + 0j)),
                       -math.inf, 0.0)
    with pytest.raises(DomainError, match="need f finite on the circle"):
        taylor_coeffs(spec, 2.0, 8)
    with pytest.raises(DomainError, match="need f finite on the circle"):
        check_hankel_definiteness(spec, 2.0, 3)


def test_hankel_definiteness_passes_for_markov():
    assert check_hankel_definiteness(inv_sqrt_spec(), 2.0, 4) is True
    assert check_hankel_definiteness(worst_case_spec(-1.0, 0.0), 1.5, 4) is True


def test_hankel_definiteness_rejects_polynomial():
    spec = custom_spec(lambda z: np.asarray(z), -1.0, 0.0)
    assert check_hankel_definiteness(spec, 2.0, 2) is False


@pytest.mark.parametrize("spec", CATALOG)
@pytest.mark.parametrize("offset", [0.5, 1.0, 1.5, 1.85, 10.0])
def test_hankel_definiteness_catalog_grid(spec, offset):
    assert check_hankel_definiteness(spec, spec.beta + offset, 6)


def _hankel_verdicts_per_n(spec, z0, n_max):
    """The moment test run separately for every n <= n_max, each on its own
    Hankel pair, with the check's tolerance."""
    from marktop.markov import _TOL_DEF_REL, _scaled_min_eig
    return all(_scaled_min_eig(hankel_matrix(spec, z0, n, 0), 1.0) > -_TOL_DEF_REL
               and _scaled_min_eig(hankel_matrix(spec, z0, n, 1), -1.0) > -_TOL_DEF_REL
               for n in range(n_max + 1))


@pytest.mark.parametrize("spec", [
    pytest.param(inv_sqrt_spec(), id="inv_sqrt"),
    pytest.param(log_spec(), id="log"),
    pytest.param(power_spec(-0.5), id="power-0.5"),
    pytest.param(worst_case_spec(-1.0, 0.0), id="worst_case"),
    pytest.param(custom_spec(lambda z: np.asarray(z), -1.0, 0.0), id="z"),
])
@pytest.mark.parametrize("offset", [0.05, 0.5, 2.0, 10.0])
def test_hankel_largest_pair_decides_for_every_n(spec, offset):
    # the leading blocks of H_{n_max} are the H_n with n < n_max
    z0 = spec.beta + offset
    for n_max in range(9):
        assert (check_hankel_definiteness(spec, z0, n_max)
                == _hankel_verdicts_per_n(spec, z0, n_max)), n_max

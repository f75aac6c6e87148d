import math

import mpmath
import numpy as np
import pytest

from marktop.approx import ellipk, jacobi_sn


def test_ellipk_small_modulus():
    assert ellipk(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)


@pytest.mark.parametrize("k", [1e-8, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9])
def test_ellipk_against_mpmath(k):
    # mpmath takes the parameter m = k^2 (modulus convention here); square k
    # at high working precision so the oracle does not lose digits near k = 1
    with mpmath.workdps(40):
        want = float(mpmath.ellipk(mpmath.mpf(k) ** 2))
    assert ellipk(k) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k", [1e-6, 0.05, 0.3, 0.7, 0.95, 0.999])
@pytest.mark.parametrize("frac", [-0.9, -0.5, -0.1, 0.2, 0.6, 1.0])
def test_jacobi_sn_against_mpmath(k, frac):
    u = frac * ellipk(k)
    want = float(mpmath.ellipfun("sn", u, k * k))
    assert jacobi_sn(u, k) == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_jacobi_sn_degenerate_modulus():
    assert jacobi_sn(0.3, 0.0) == pytest.approx(math.sin(0.3), abs=1e-15)


def test_jacobi_sn_quarter_period():
    for k in (0.2, 0.8):
        assert jacobi_sn(ellipk(k), k) == pytest.approx(1.0, abs=1e-12)

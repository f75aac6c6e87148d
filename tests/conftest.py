import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def levinson_calls(monkeypatch):
    """Right-hand-side shape of each Levinson solve made during the test;
    scipy runs one recursion per right-hand-side column."""
    from marktop import tlalgebra
    calls = []
    solve = tlalgebra.solve

    def counting(a, rhs):
        calls.append(np.shape(rhs))
        return solve(a, rhs)

    monkeypatch.setattr(tlalgebra, "solve", counting)
    return calls


@pytest.fixture
def residual_calls(monkeypatch):
    """Degree m of the worst-case fit in each residual evaluation made
    during the test."""
    from marktop import matfun
    calls = []
    residual_sqrt = matfun.residual_sqrt

    def counting(a, r_nu, g):
        calls.append(len(r_nu.nodes) // 2)
        return residual_sqrt(a, r_nu, g)

    monkeypatch.setattr(matfun, "residual_sqrt", counting)
    return calls


@pytest.fixture
def dense_calls(monkeypatch):
    """Size n of each TL matrix densified during the test."""
    from marktop import tlalgebra
    calls = []
    to_dense = tlalgebra.to_dense

    def counting(a):
        calls.append(a.n)
        return to_dense(a)

    monkeypatch.setattr(tlalgebra, "to_dense", counting)
    return calls


@pytest.fixture
def compress_widths(monkeypatch):
    """Input generator width of each compress made during the test; every
    wide generator (a sum, a product, an inverse) is built as one."""
    from marktop import tlalgebra
    widths = []
    compress = tlalgebra.compress

    def counting(a):
        widths.append(a.width)
        return compress(a)

    monkeypatch.setattr(tlalgebra, "compress", counting)
    return widths


import numpy as np
import pytest
import scipy.linalg


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


def random_spd_toeplitz_col(n, seed, diag=4.0, spread=0.5):
    """First column of a diagonally dominant (hence SPD) symmetric Toeplitz."""
    r = np.random.default_rng(seed)
    off = r.uniform(-1.0, 1.0, n - 1)
    off *= spread / np.sum(np.abs(off))
    return np.concatenate([[diag], off])


def spectral_interval(col, row=None):
    ev = np.linalg.eigvalsh(scipy.linalg.toeplitz(col, row))
    return float(ev[0]), float(ev[-1])

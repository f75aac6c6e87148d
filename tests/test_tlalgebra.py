"""Displacement-generator Toeplitz-like arithmetic against dense oracles."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from marktop import (DimensionError, SingularMatrix, TLMatrix, ToeplitzInput, from_toeplitz,
                     identity_tl, read_toeplitz, write_toeplitz)
from marktop.tlalgebra import (add, compress, displacement, invert, matvec,
                               matvec_t, multiply, norm_est, scale, shift,
                               shift_matrix, solve, solve_t, to_dense)


def random_toeplitz_col(n, seed, diag=4.0):
    rng = np.random.default_rng(seed)
    col = rng.uniform(-1.0, 1.0, size=n)
    col[0] = diag  # diagonal dominance keeps the matrix SPD
    return col


def explicit_dense(g, b):
    """(1/2) sum_k C1(g_k) Cm1(J b_k), each factor built entry by entry."""
    n, r = g.shape
    out = np.zeros((n, n))
    for k in range(r):
        skew = scipy.linalg.circulant(b[::-1, k])
        skew[np.triu_indices(n, 1)] *= -1.0  # wrapped entries change sign
        out += 0.5 * scipy.linalg.circulant(g[:, k]) @ skew
    return out


def random_generators(n, r, seed):
    rng = np.random.default_rng(seed)
    return TLMatrix(n, rng.standard_normal((n, r)), rng.standard_normal((n, r)))


# --------------------------------------------------------------- displacement

def test_displacement_identity_matrix():
    n = 6
    s = displacement(np.eye(n))
    want = np.zeros((n, n))
    want[0, n - 1] = 2.0
    assert np.array_equal(s, want)


def test_displacement_of_shift_and_zero():
    n = 5
    z1 = shift_matrix(n, 1.0)
    zm1 = shift_matrix(n, -1.0)
    assert np.allclose(displacement(z1), z1 @ z1 - z1 @ zm1)
    assert np.array_equal(displacement(np.zeros((n, n))), np.zeros((n, n)))


def test_generator_matches_dense_displacement():
    n = 32
    a = from_toeplitz(random_toeplitz_col(n, 7))
    d = to_dense(a)
    assert np.linalg.norm(displacement(d) - a.G @ a.B.T) <= 1e-13 * np.linalg.norm(d)


# -------------------------------------------------------------- from_toeplitz

def test_identity_rank_one():
    ident = compress(identity_tl(8))
    assert ident.width == 1
    assert np.allclose(to_dense(ident), np.eye(8))


def test_toeplitz_roundtrip_and_rank():
    n = 64
    col = random_toeplitz_col(n, 3)
    a = from_toeplitz(col)
    assert compress(a).width == 2
    assert a.symmetric
    want = scipy.linalg.toeplitz(col)
    assert np.max(np.abs(to_dense(a) - want)) <= 1e-14 * np.max(np.abs(col))
    # reconstruction from the generators alone (no Toeplitz tag shortcut)
    bare = TLMatrix(n, a.G, a.B)
    assert np.max(np.abs(to_dense(bare) - want)) <= 1e-13 * np.max(np.abs(col))


def test_nonsymmetric_toeplitz_roundtrip():
    n = 24
    rng = np.random.default_rng(11)
    col = rng.uniform(-1, 1, n)
    row = rng.uniform(-1, 1, n)
    row[0] = col[0]
    a = from_toeplitz(col, row)
    assert not a.symmetric
    assert np.allclose(to_dense(a), scipy.linalg.toeplitz(col, row), atol=1e-14)


def test_from_toeplitz_corner_mismatch():
    with pytest.raises(DimensionError):
        from_toeplitz([1.0, 2.0], [3.0, 4.0])


# -------------------------------------------------------- add / scale / shift

def test_add_cancellation_compresses_to_zero():
    a = from_toeplitz(random_toeplitz_col(16, 0))
    z = compress(add(a, scale(a, -1.0)))
    assert z.width == 0
    assert np.allclose(to_dense(z), 0.0)


def test_scale_exact():
    a = from_toeplitz(random_toeplitz_col(16, 1))
    assert np.array_equal(to_dense(scale(a, 2.0)), 2.0 * to_dense(a))


def test_add_rank_rule():
    x = from_toeplitz(random_toeplitz_col(32, 4))
    y = from_toeplitz(random_toeplitz_col(32, 5))
    s = compress(add(x, y))
    assert s.width <= compress(x).width + compress(y).width
    assert np.allclose(to_dense(s), to_dense(x) + to_dense(y), atol=1e-12)


def test_shift_matches_dense_and_keeps_tag():
    a = from_toeplitz(random_toeplitz_col(20, 6))
    sh = shift(a, 0.75)
    assert sh.toeplitz is not None and sh.symmetric
    assert np.allclose(to_dense(sh), to_dense(a) - 0.75 * np.eye(20), atol=1e-14)
    assert compress(sh).width <= a.width + 1


# ------------------------------------------------------------------- multiply

def test_multiply_by_identity():
    a = from_toeplitz(random_toeplitz_col(32, 8))
    p = multiply(a, identity_tl(32))
    assert np.allclose(to_dense(p), to_dense(a), atol=1e-13)


def test_multiply_dense_agreement_and_rank():
    n = 64
    x = from_toeplitz(random_toeplitz_col(n, 9))
    y = from_toeplitz(random_toeplitz_col(n, 10))
    p = multiply(x, y)
    assert p.width <= 5  # tau_x + tau_y + 1
    want = to_dense(x) @ to_dense(y)
    assert np.max(np.abs(to_dense(p) - want)) <= 1e-11 * np.linalg.norm(want)


def test_multiply_by_inverse_is_identity():
    n = 48
    x = from_toeplitz(random_toeplitz_col(n, 12))
    p = multiply(x, invert(x))
    assert np.max(np.abs(to_dense(p) - np.eye(n))) <= 1e-9


# --------------------------------------------------------------------- invert

def test_invert_identity():
    inv = invert(compress(identity_tl(10)))
    assert inv.width == 1
    assert np.allclose(to_dense(inv), np.eye(10), atol=1e-13)


def test_invert_dense_agreement_symmetric():
    n = 64
    a = from_toeplitz(random_toeplitz_col(n, 13))
    d = to_dense(a)
    cond = np.linalg.cond(d)
    err = np.max(np.abs(to_dense(invert(a)) - np.linalg.inv(d)))
    assert err <= 1e-8 * cond


def test_invert_shifted_toeplitz():
    n = 32
    a = shift(from_toeplitz(random_toeplitz_col(n, 14)), -1.0)  # A + I, SPD
    err = np.max(np.abs(to_dense(invert(a)) - np.linalg.inv(to_dense(a))))
    assert err <= 1e-10


def test_invert_rank_preservation():
    for seed in range(5):
        a = from_toeplitz(random_toeplitz_col(64, 20 + seed))
        assert invert(a).width <= compress(a).width


def test_invert_nonsymmetric():
    n = 24
    rng = np.random.default_rng(15)
    col = rng.uniform(-0.5, 0.5, n)
    row = rng.uniform(-0.5, 0.5, n)
    col[0] = row[0] = 3.0
    a = from_toeplitz(col, row)
    err = np.max(np.abs(to_dense(invert(a)) - np.linalg.inv(to_dense(a))))
    assert err <= 1e-10
    assert invert(a).width <= 4


@pytest.mark.parametrize("a", [
    pytest.param(TLMatrix(8, np.zeros((8, 2)), np.zeros((8, 2))), id="untagged"),
    pytest.param(from_toeplitz(np.zeros(8)), id="toeplitz"),
])
def test_invert_zero_generators_singular(a):
    # the general formula with one LU, and the symmetric formula with Levinson
    with pytest.raises(SingularMatrix):
        invert(a)


# --------------------------------------------------------------------- matvec

def test_matvec_identity():
    v = np.arange(12.0)
    assert np.allclose(matvec(identity_tl(12), v), v, atol=1e-14)


def test_matvec_dense_agreement():
    n = 256
    a = from_toeplitz(random_toeplitz_col(n, 17))
    rng = np.random.default_rng(18)
    v = rng.standard_normal(n)
    want = to_dense(a) @ v
    assert np.max(np.abs(matvec(a, v) - want)) <= 1e-12 * np.linalg.norm(want)


def test_matvec_t_dense_agreement():
    n = 40
    rng = np.random.default_rng(19)
    col = rng.uniform(-1, 1, n)
    row = rng.uniform(-1, 1, n)
    row[0] = col[0]
    a = from_toeplitz(col, row)
    v = rng.standard_normal(n)
    assert np.allclose(matvec_t(a, v), to_dense(a).T @ v, atol=1e-12)


@pytest.mark.parametrize("n", [1, 6, 7, 64])
@pytest.mark.parametrize("r", [0, 1, 20])
def test_untagged_kernel_matches_explicit_construction(n, r):
    a = random_generators(n, r, 30 + n + r)
    want = explicit_dense(a.G, a.B)
    scale_ = max(np.linalg.norm(want), 1.0)
    v = np.random.default_rng(31).standard_normal(n)
    assert np.linalg.norm(to_dense(a) - want) <= 1e-14 * n * scale_
    assert np.linalg.norm(matvec(a, v) - want @ v) <= 1e-14 * n * scale_ * np.linalg.norm(v)
    assert np.linalg.norm(matvec_t(a, v) - want.T @ v) <= 1e-14 * n * scale_ \
        * np.linalg.norm(v)


@pytest.mark.parametrize("p", [2, 3, 7])  # p < r, p = r, p > r in blocks of 2
def test_matvec_block_right_hand_sides(p):
    n = 33
    a = random_generators(n, 3, 32)
    want = explicit_dense(a.G, a.B)
    x = np.random.default_rng(33).standard_normal((n, p))
    assert np.allclose(matvec(a, x), want @ x, rtol=0, atol=1e-13 * np.linalg.norm(want))
    assert np.allclose(matvec_t(a, x), want.T @ x, rtol=0,
                       atol=1e-13 * np.linalg.norm(want))
    # each column agrees with its own single-vector product
    for j in range(p):
        assert np.allclose(matvec(a, x)[:, j], matvec(a, x[:, j]), rtol=0, atol=1e-14)


def test_scale_after_matvec_does_not_reuse_spectra():
    a = random_generators(16, 2, 34)
    v = np.random.default_rng(35).standard_normal(16)
    before, before_t = matvec(a, v), matvec_t(a, v)
    doubled = scale(a, 2.0)
    assert np.allclose(matvec(doubled, v), 2.0 * before, rtol=1e-14, atol=0)
    assert np.allclose(matvec_t(doubled, v), 2.0 * before_t, rtol=1e-14, atol=0)
    assert np.allclose(to_dense(doubled), 2.0 * explicit_dense(a.G, a.B), atol=1e-13)
    assert np.array_equal(matvec(a, v), before)


# ---------------------------------------------------------------------- solve

def test_solve_identity():
    rhs = np.arange(8.0)
    assert np.allclose(solve(identity_tl(8), rhs), rhs)


def test_solve_residual_levinson():
    n = 256
    a = from_toeplitz(random_toeplitz_col(n, 21))
    rng = np.random.default_rng(22)
    rhs = rng.standard_normal(n)
    x = solve(a, rhs)
    assert np.linalg.norm(matvec(a, x) - rhs) <= 1e-10 * np.linalg.norm(rhs) \
        * np.linalg.cond(to_dense(a))


def test_solve_matvec_roundtrip():
    n = 128
    a = from_toeplitz(random_toeplitz_col(n, 23))
    rng = np.random.default_rng(24)
    v = rng.standard_normal(n)
    back = solve(a, matvec(a, v))
    assert np.linalg.norm(back - v) <= 1e-9 * np.linalg.norm(v)


def test_solve_untagged_dense_path():
    n = 32
    a = from_toeplitz(random_toeplitz_col(n, 25))
    bare = TLMatrix(n, a.G, a.B)
    rng = np.random.default_rng(26)
    rhs = rng.standard_normal(n)
    assert np.allclose(solve(bare, rhs), solve(a, rhs), atol=1e-10)


def test_solve_t_untagged_nonsymmetric():
    # the dense LU of A serves A^T x = rhs through its transposed solve
    n = 24
    rng = np.random.default_rng(38)
    col = rng.uniform(-0.5, 0.5, n)
    row = rng.uniform(-0.5, 0.5, n)
    col[0] = row[0] = 3.0
    tagged = from_toeplitz(col, row)
    bare = TLMatrix(n, tagged.G, tagged.B)
    rhs = rng.standard_normal((n, 2))
    dense = scipy.linalg.toeplitz(col, row)
    assert np.allclose(solve(bare, rhs), np.linalg.solve(dense, rhs), rtol=0, atol=1e-12)
    assert np.allclose(solve_t(bare, rhs), np.linalg.solve(dense.T, rhs), rtol=0, atol=1e-12)
    assert np.allclose(solve_t(bare, rhs), solve_t(tagged, rhs), rtol=0, atol=1e-12)


SINGULAR = {
    "zero-untagged": TLMatrix(6, np.zeros((6, 2)), np.zeros((6, 2))),
    "toeplitz-zero-minor": from_toeplitz([0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(SINGULAR))
def test_singular_solves_raise_singular_matrix(name):
    a = SINGULAR[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no LinAlgWarning on the way
        for solver in (solve, solve_t):
            with pytest.raises(SingularMatrix):
                solver(a, np.ones(a.n))
        with pytest.raises(SingularMatrix):
            invert(a)


def test_invert_untagged_nonsymmetric():
    n = 24
    rng = np.random.default_rng(36)
    col = rng.uniform(-0.5, 0.5, n)
    row = rng.uniform(-0.5, 0.5, n)
    col[0] = row[0] = 3.0
    tagged = from_toeplitz(col, row)
    bare = TLMatrix(n, tagged.G, tagged.B)
    want = np.linalg.inv(scipy.linalg.toeplitz(col, row))
    assert np.max(np.abs(to_dense(invert(bare)) - want)) <= 1e-10
    assert np.max(np.abs(to_dense(invert(bare)) - to_dense(invert(tagged)))) <= 1e-12


@pytest.mark.parametrize("n", [32, 64, 256])
def test_invert_untagged_symmetric_takes_general_formula(n):
    # without the Toeplitz tag a symmetric matrix is inverted by the general
    # formula through one LU; it must agree with the symmetric formula
    a = from_toeplitz(random_toeplitz_col(n, 37 + n))
    bare = TLMatrix(n, a.G, a.B)
    assert a.symmetric and not bare.symmetric
    d = to_dense(a)
    cond = np.linalg.cond(d)
    inv = invert(bare)
    assert inv.width <= 2
    assert np.max(np.abs(to_dense(inv) - to_dense(invert(a)))) <= 1e-8 * cond
    assert np.max(np.abs(to_dense(inv) - np.linalg.inv(d))) <= 1e-8 * cond


# ------------------------------------------------------------------- compress

def test_compress_padded_generators():
    a = from_toeplitz(random_toeplitz_col(32, 27))
    padded = TLMatrix(a.n, np.hstack([a.G, a.G]), np.hstack([a.B, a.B]))
    c = compress(padded)
    assert c.width == 2
    assert np.allclose(to_dense(c), 2.0 * to_dense(a), atol=1e-12)


# ------------------------------------------------------------------- norm_est

def test_norm_est_identity():
    assert norm_est(compress(identity_tl(16))) == pytest.approx(1.0, abs=1e-10)


def test_norm_est_vs_dense():
    n = 128
    a = from_toeplitz(random_toeplitz_col(n, 28))
    want = np.linalg.norm(to_dense(a), 2)
    assert norm_est(a) == pytest.approx(want, rel=0.01)


# ------------------------------------------------------------------- file I/O

def test_toeplitz_file_roundtrip(tmp_path):
    n = 10
    rng = np.random.default_rng(29)
    col = rng.uniform(-1, 1, n)
    row = rng.uniform(-1, 1, n)
    row[0] = col[0]
    path = tmp_path / "t.txt"
    write_toeplitz(path, ToeplitzInput(col, row))
    back = read_toeplitz(path)
    assert np.array_equal(back.col, col)
    assert np.array_equal(back.row, row)


# --------------------------------------------------- rank rules, random sweep

@pytest.mark.parametrize("n", [32, 64])
def test_rank_rules_random_instances(n):
    for seed in range(20):
        x = from_toeplitz(random_toeplitz_col(n, 100 + seed))
        y = from_toeplitz(random_toeplitz_col(n, 200 + seed))
        assert compress(x).width <= 2
        assert compress(add(x, y)).width <= 4
        assert multiply(x, y).width <= 5
        assert invert(x).width <= 2

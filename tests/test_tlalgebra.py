"""Displacement-generator Toeplitz-like arithmetic against dense oracles."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from marktop import (DimensionError, DomainError, SingularMatrix, TLMatrix,
                     from_toeplitz, identity_tl, read_toeplitz, write_toeplitz)
from marktop import matfun, tlalgebra
from marktop.approx import build_geometry, optimal_nodes
from marktop.experiments import gen_random_spd_toeplitz
from marktop.interp import fit_interpolant
from marktop.markov import inv_sqrt_spec, log_spec, worst_case_spec
from marktop.tlalgebra import (add, compress, displacement, invert, matvec,
                               matvec_t, multiply, norm_est, scale, shift,
                               shift_matrix, shifted_inverses, solve, solve_t,
                               to_dense)


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


def nonsymmetric_product(n, seed):
    """X Y for two well-conditioned tagged matrices: untagged, nonsymmetric."""
    rng = np.random.default_rng(seed)
    cols = rng.uniform(-0.5, 0.5, (2, n))
    cols[:, 0] = 3.0
    return multiply(from_toeplitz(cols[0]), from_toeplitz(cols[1])), cols


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
    assert np.array_equal(a.toeplitz, col)
    want = scipy.linalg.toeplitz(col)
    assert np.max(np.abs(to_dense(a) - want)) <= 1e-14 * np.max(np.abs(col))
    # reconstruction from the generators alone (no Toeplitz tag shortcut)
    bare = TLMatrix(n, a.G, a.B)
    assert np.max(np.abs(to_dense(bare) - want)) <= 1e-13 * np.max(np.abs(col))


@pytest.mark.parametrize("col, row, entry", [
    ([np.nan, 1.0, 0.0], [np.nan, 1.0, 0.0], "first column entry 0 is nan"),
    ([4.0, 1.0, 0.0], [4.0, np.inf, 0.0], "first row entry 1 is inf"),
    ([4.0, 1.0, -np.inf], [4.0, 1.0, 0.0], "first column entry 2 is -inf"),
])
def test_nonfinite_toeplitz_entries_rejected(col, row, entry, tmp_path):
    # in a file before the symmetry test: a nan diagonal never equals itself
    if "column" in entry:
        with pytest.raises(DomainError, match=entry):
            from_toeplitz(col)
    path = tmp_path / "t.txt"
    path.write_text("\n".join(map(str, [len(col), *col, *row[1:]])))
    with pytest.raises(DomainError, match=entry):
        read_toeplitz(path)


# -------------------------------------------------------- add / scale / shift

def test_add_cancellation_compresses_to_zero():
    a = from_toeplitz(random_toeplitz_col(16, 0))
    z = compress(add(a, scale(a, -1.0)))
    assert z.width == 0
    assert np.allclose(to_dense(z), 0.0)
    # an untagged sum is compressed by add itself
    x = multiply(a, a)
    assert x.toeplitz is None and add(x, scale(x, -1.0)).width == 0


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
    assert sh.toeplitz is not None
    assert np.allclose(to_dense(sh), to_dense(a) - 0.75 * np.eye(20), atol=1e-14)
    assert compress(sh).width <= a.width + 1


def test_shift_by_zero_returns_the_argument():
    # an untagged A - 0 I gains no zero generator column, which would cost
    # one more FFT pair in every later matvec
    a, _ = nonsymmetric_product(24, 3)
    v = np.random.default_rng(6).standard_normal(24)
    for x in (a, from_toeplitz(random_toeplitz_col(24, 6))):
        sh = shift(x, 0.0)
        assert sh is x and sh.width == x.width
        assert np.array_equal(matvec(sh, v), matvec(x, v))


def _assert_same_tl(x, y):
    assert x.toeplitz is not None and y.toeplitz is not None
    assert x.width == y.width == 2
    for u, v in [(x.G, y.G), (x.B, y.B), (x.toeplitz, y.toeplitz)]:
        assert np.array_equal(u, v)


def test_tagged_shift_and_sum_are_built_from_their_column():
    col = random_toeplitz_col(20, 7)
    other = random_toeplitz_col(20, 8)
    shifted = col.copy()
    shifted[0] -= 0.75
    _assert_same_tl(shift(from_toeplitz(col), 0.75), from_toeplitz(shifted))
    _assert_same_tl(add(from_toeplitz(col), from_toeplitz(other)),
                    from_toeplitz(col + other))
    _assert_same_tl(scale(from_toeplitz(col), 0.3), from_toeplitz(0.3 * col))


def test_add_of_three_untagged_terms_matches_their_dense_sum():
    terms = [random_generators(24, r, 40 + r) for r in (1, 2, 3)]
    got = add(*terms)
    want = sum(explicit_dense(t.G, t.B) for t in terms)
    assert got.toeplitz is None and got.width <= 6
    assert np.allclose(to_dense(got), want, rtol=0, atol=1e-13 * np.linalg.norm(want))


def test_add_of_tagged_terms_is_the_chained_sum_bitwise():
    a, b, c = (from_toeplitz(random_toeplitz_col(20, seed)) for seed in (44, 45, 46))
    _assert_same_tl(add(a, b, c), add(add(a, b), c))
    _assert_same_tl(add(a), from_toeplitz(a.toeplitz))


def test_add_size_mismatch_names_the_first_odd_term():
    with pytest.raises(DimensionError, match="size mismatch 2 vs 1"):
        add(from_toeplitz([2.0, 1.0]), from_toeplitz([3.0, 0.5]), from_toeplitz([2.0]))


def test_tagged_pole_sum_compresses_once_after_the_per_pole_inverses(compress_widths):
    # each pole's Gohberg-Semencul generator (width 4) is compressed alone,
    # then the m scaled inverses are stacked and compressed once
    n, m = 512, 6
    g = build_geometry(-np.inf, 0.0, 1.0, 100.0)
    r = fit_interpolant(inv_sqrt_spec(), optimal_nodes(g, m), "pfd")
    a = matfun.tl_arg(gen_random_spd_toeplitz(n, 1.0, 100.0, 0), 1.0, 100.0)
    out = matfun.eval_rational_at_matrix(r, a)
    assert compress_widths[:m] == [4] * m and len(compress_widths) == m + 1
    assert out.toeplitz is None and out.width <= compress_widths[-1] <= 2 * m


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
    a, _ = nonsymmetric_product(24, 15)
    err = np.max(np.abs(to_dense(invert(a)) - np.linalg.inv(to_dense(a))))
    assert err <= 1e-10
    assert invert(a).width <= 4


def symmetric_toeplitz_case(kind, n):
    """Shifted SPD A + I, or symmetric data with both signs in its spectrum
    (negative definite at n = 1)."""
    rng = np.random.default_rng(40 + n)
    col = rng.uniform(-1.0, 1.0, n) * 0.5 ** np.minimum(np.arange(n), 60)
    if kind == "shifted-spd":
        col[0] = 2.0
        return shift(from_toeplitz(col), -1.0)
    col[0] = -0.5
    col[1:2] = 2.0  # the leading 2 x 2 block has eigenvalues 1.5 and -2.5
    return from_toeplitz(col)


@pytest.mark.parametrize("kind", ["shifted-spd", "indefinite"])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 513])
def test_invert_symmetric_toeplitz_matches_dense_inverse(kind, n):
    a = symmetric_toeplitz_case(kind, n)
    assert a.toeplitz is not None
    d = to_dense(a)
    eigs = np.linalg.eigvalsh(d)
    assert (eigs[0] > 0) == (kind == "shifted-spd") and (n == 1 or eigs[-1] > 0)
    cond = np.linalg.cond(d)
    err = np.max(np.abs(to_dense(invert(a)) - np.linalg.inv(d)))
    assert err <= 1e-8 * cond


def test_invert_symmetric_toeplitz_runs_one_recursion(levinson_calls, dense_calls):
    # the generator of A^{-1} is written from A^{-1} e1 alone, however wide
    # the generator of A
    n = 256
    a = symmetric_toeplitz_case("shifted-spd", n)
    wide = TLMatrix(n, np.hstack([a.G, a.G]), np.hstack([a.B, 0.0 * a.B]),
                    toeplitz=a.toeplitz)
    assert wide.width == 4
    invert(wide)
    assert levinson_calls == [(n,)]
    assert dense_calls == []


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
    a, _ = nonsymmetric_product(n, 19)
    v = np.random.default_rng(19).standard_normal(n)
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


@st.composite
def _kernel_problems(draw):
    """(A, dense A, x): a tagged A, or generators of width 0 to 9 whose
    columns span six orders of magnitude, n from 1 to 70, and x of shape (n,)
    or (n, p) with p up to 2 width + 1."""
    n, seed = draw(st.integers(1, 70)), draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        col = rng.standard_normal(n)
        a, want = from_toeplitz(col), scipy.linalg.toeplitz(col)
    else:
        r = draw(st.integers(0, 9))
        g = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-3.0, 3.0, r)
        a = TLMatrix(n, g, rng.standard_normal((n, r)))
        want = explicit_dense(a.G, a.B)
    p = draw(st.none() | st.integers(1, 2 * a.width + 1))
    return a, want, rng.standard_normal(n if p is None else (n, p))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(_kernel_problems())
def test_matvec_kernels_match_dense_property(problem):
    a, want, x = problem
    tol = 1e-14 * a.n * np.linalg.norm(want, 2) * np.linalg.norm(x)
    got, got_t = matvec(a, x), matvec_t(a, x)
    assert got.shape == got_t.shape == x.shape
    assert np.linalg.norm(got - want @ x) <= tol
    assert np.linalg.norm(got_t - want.T @ x) <= tol
    if a.toeplitz is not None:
        assert np.array_equal(got_t, got)


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


SINGULAR = {
    "zero-untagged": TLMatrix(6, np.zeros((6, 2)), np.zeros((6, 2))),
    "toeplitz-symmetric-rank-one": from_toeplitz(np.ones(4)),
}


@pytest.mark.parametrize("name", sorted(SINGULAR))
def test_singular_solves_raise_singular_matrix(name):
    a = SINGULAR[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no LinAlgWarning on the way
        if a.toeplitz is not None:  # an untagged matrix is inverted, not solved
            for solver in (solve, solve_t):
                with pytest.raises(SingularMatrix):
                    solver(a, np.ones(a.n))
        with pytest.raises(SingularMatrix):
            invert(a)


def test_nonsymmetric_toeplitz_with_zero_minor_solves():
    # det = 1: the zero leading minor breaks Levinson, which does not pivot,
    # but not the dense LU that inverts the same matrix without its tag
    col = [0.0, 1.0, 0.0, 0.0]
    a = from_toeplitz(col)
    bare = TLMatrix(a.n, a.G, a.B)
    want = np.linalg.inv(scipy.linalg.toeplitz(col))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(to_dense(invert(bare)), want, rtol=0, atol=1e-14)
        for fn in (lambda: solve(a, np.arange(1.0, 5.0)), lambda: invert(a)):
            with pytest.raises(SingularMatrix):
                fn()


def test_invert_symmetric_overflowing_recursion_raises():
    # scipy's Levinson overflows to nan on this data without an error of
    # its own; no solve may hand nan on, and the inverse must not carry it
    a = from_toeplitz([1e-300, 1e300, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (lambda: solve(a, [1.0, 0.0, 0.0]),
                   lambda: solve_t(a, [1.0, 0.0, 0.0]), lambda: invert(a)):
            with pytest.raises(SingularMatrix):
                fn()


def test_invert_untagged_nonsymmetric():
    a, cols = nonsymmetric_product(24, 36)
    assert a.toeplitz is None  # a product of Toeplitz matrices carries no tag
    want = np.linalg.inv(scipy.linalg.toeplitz(cols[0]) @ scipy.linalg.toeplitz(cols[1]))
    assert np.max(np.abs(to_dense(invert(a)) - want)) <= 1e-10


@pytest.mark.parametrize("n", [32, 64, 256])
def test_invert_untagged_symmetric_takes_general_formula(n):
    # without the Toeplitz tag a symmetric matrix is inverted by the general
    # formula through one LU; it must agree with the symmetric formula
    a = from_toeplitz(random_toeplitz_col(n, 37 + n))
    bare = TLMatrix(n, a.G, a.B)
    assert a.toeplitz is not None and bare.toeplitz is None
    d = to_dense(a)
    cond = np.linalg.cond(d)
    inv = invert(bare)
    assert inv.width <= 2
    for solver in (solve, solve_t):  # untagged: inverted, not solved
        with pytest.raises(DimensionError, match="tag"):
            solver(bare, np.ones(n))
    assert np.max(np.abs(to_dense(inv) - to_dense(invert(a)))) <= 1e-8 * cond
    assert np.max(np.abs(to_dense(inv) - np.linalg.inv(d))) <= 1e-8 * cond


# ------------------------------------------------------------------- compress

def test_compress_padded_generators():
    a = from_toeplitz(random_toeplitz_col(32, 27))
    padded = TLMatrix(a.n, np.hstack([a.G, a.G]), np.hstack([a.B, a.B]))
    c = compress(padded)
    assert c.width == 2
    assert np.allclose(to_dense(c), 2.0 * to_dense(a), atol=1e-12)


def test_compress_width_zero_returns_it_unchanged():
    a = TLMatrix(4, np.zeros((4, 0)), np.zeros((4, 0)))
    assert compress(a) is a


# ----------------------------------------------------------- shifted_inverses

@pytest.fixture(scope="module")
def spd2048():
    """First column of a random SPD Toeplitz matrix of size 2048 with
    spectrum [1, 10]; each test builds its own TLMatrix, so none inherits
    another's Lanczos run."""
    return gen_random_spd_toeplitz(2048, 1.0, 10.0, 0).toeplitz


def _pfd_poles(spec, m, c=1.0, d=10.0):
    g = build_geometry(spec.alpha, spec.beta, c, d)
    return fit_interpolant(spec, optimal_nodes(g, m), "pfd",
                           interval=(g.alpha, g.beta)).poles


def _same_generators(xs, ys):
    return all(np.array_equal(x.G, y.G) and np.array_equal(x.B, y.B)
               for x, y in zip(xs, ys, strict=True))


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("spec", [inv_sqrt_spec(), log_spec()], ids=["inv_sqrt", "log"])
def test_shifted_inverses_krylov_columns_match_levinson(spd2048, spec, m, levinson_calls):
    n = len(spd2048)
    poles = _pfd_poles(spec, m)
    e1 = np.eye(1, n)[0]
    a = from_toeplitz(spd2048)
    inverses = shifted_inverses(a, poles)
    assert levinson_calls == []  # every pole converged in the Lanczos run
    cols = tlalgebra._fom_columns(from_toeplitz(spd2048), np.array(poles), n)
    for y, x, inv in zip(poles, cols, inverses):
        want = solve(shift(a, y), e1)
        assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want), y
        assert np.linalg.norm(matvec(inv, e1) - want) <= 1e-13 * np.linalg.norm(want), y


def test_shifted_inverses_fall_back_to_levinson_for_unconverged_shifts(levinson_calls):
    # the shift -0.01 needs about 50 steps: the run stops after
    # isqrt(2 n / 2) = 22 steps, checked at 8 and 16, and that shift alone
    # takes Levinson; -1000 converges
    n = 512
    a = gen_random_spd_toeplitz(n, 1.0, 10.0, 1)
    near, far = shifted_inverses(a, [-0.01, -1000.0])
    assert levinson_calls == [(n,)]
    assert len(a._krylov[1]) == 16
    assert _same_generators([near], [invert(shift(a, -0.01))])
    want = to_dense(invert(shift(a, -1000.0)))
    assert np.max(np.abs(to_dense(far) - want)) <= 1e-14 * np.max(np.abs(want))


def test_shifted_inverses_keep_small_wide_problems_on_levinson(levinson_calls):
    # n = 96 on [1, 100] with the 4 poles of tl-fallback's log: the run
    # stops after isqrt(4 n / 2) = 13 steps, checked once at 8, before any
    # pole converges, so each takes invert
    n = 96
    a = gen_random_spd_toeplitz(n, 1.0, 100.0, 2)
    poles = _pfd_poles(log_spec(), 4, 1.0, 100.0)
    got = shifted_inverses(a, poles)
    assert levinson_calls == [(n,)] * len(poles)
    assert len(a._krylov[1]) == 8
    assert _same_generators(got, [invert(shift(a, y)) for y in poles])


def test_shifted_inverses_reuse_the_kept_run(spd2048, monkeypatch):
    # the sweep's r_nu(A), then r_mu(A) on the same argument: the second
    # pole sum's shifts converge within the kept steps and add none
    a = from_toeplitz(spd2048)
    shifted_inverses(a, _pfd_poles(worst_case_spec(-np.inf, 0.0), 4))
    kept = a._krylov
    monkeypatch.setattr(tlalgebra, "matvec", None)  # never reached
    shifted_inverses(a, _pfd_poles(log_spec(), 4))
    assert a._krylov is kept


def test_shifted_inverses_do_not_depend_on_the_kept_steps(spd2048):
    # the two poles farthest from c converge early; after a run kept for all
    # four, a call takes each of them at the same step of the fixed check
    # schedule as a call on a fresh argument
    poles = _pfd_poles(log_spec(), 4)
    far = poles[:2]
    fresh = from_toeplitz(spd2048)
    want = shifted_inverses(fresh, far)
    longer = from_toeplitz(spd2048)
    shifted_inverses(longer, poles)
    assert len(longer._krylov[1]) > len(fresh._krylov[1])
    assert _same_generators(shifted_inverses(longer, far), want)
    assert _same_generators(shifted_inverses(fresh, far), want)


def test_shifted_inverses_singular_ritz_gap_takes_levinson(levinson_calls):
    # A = 2 I and the shift 2 = theta, so T_1 - 2 I = 0; no division warns,
    # and Levinson sees the singular A - 2 I
    n = 2048
    a = from_toeplitz(2.0 * np.eye(1, n)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix):
            shifted_inverses(a, [2.0])
    assert levinson_calls == [(n,)]
    assert a._krylov[1] == (2.0,)


def test_shifted_inverses_on_threads_sharing_an_argument():
    # each call reads the kept run once and replaces it whole under a lock,
    # so calls on threads that share one argument return what calls on
    # fresh arguments do, and the longest run is kept
    col = gen_random_spd_toeplitz(512, 1.0, 2.0, 3).toeplitz
    sets = [[-0.01 * (j + 1) - 0.5 * i for j in range(4)] for i in range(6)]
    fresh = [from_toeplitz(col) for _ in sets]
    want = [shifted_inverses(a, ys) for a, ys in zip(fresh, sets)]
    shared = from_toeplitz(col)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda ys: shifted_inverses(shared, ys),
                                sets[::-1] * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(_same_generators(g, w) for g, w in zip(got, want[::-1] * 2))
    assert len(shared._krylov[1]) == max(len(a._krylov[1]) for a in fresh)


def test_shifted_inverses_serve_the_log_poles_at_the_start_degree(levinson_calls):
    # n = 1024 on [1, 100]: the 9 poles of the log fit at its start degree,
    # whose CG bound for a spectrum filling [1, 100] predicts more steps than
    # isqrt(9 n / 2) = 67; the run, capped there, serves most of them
    n = 1024
    a = gen_random_spd_toeplitz(n, 1.0, 100.0, 0)
    spec = log_spec()
    g = build_geometry(spec.alpha, spec.beta, 1.0, 100.0)
    poles = _pfd_poles(spec, matfun._start_degree(g, "pfd", n, 20), 1.0, 100.0)
    got = shifted_inverses(a, poles)
    assert len(levinson_calls) < len(poles)
    for y, inv in zip(poles, got):
        want = to_dense(invert(shift(a, y)))
        assert np.max(np.abs(to_dense(inv) - want)) <= 1e-12 * np.max(np.abs(want)), y


@st.composite
def _shifted_problems(draw):
    """(first column, eigenvalues, shifts) of a tagged SPD A with n <= 256
    and shifts below, inside and above its spectrum, and 0: a random A with
    spectrum [1, kappa] and shifts y whose cond(A - yI) = (||A|| + |y|) /
    dist(y, spectrum) is at most 1e8, or t I with t itself among the shifts."""
    n = draw(st.integers(2, 256))
    ts = draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=5))
    if draw(st.booleans()):
        t = draw(st.floats(0.1, 10.0))
        return t * np.eye(1, n)[0], np.full(n, t), [0.0, t] + [t + u for u in ts]
    col = gen_random_spd_toeplitz(n, 1.0, 10.0 ** draw(st.floats(0.1, 6.0)),
                                  draw(st.integers(0, 2 ** 16))).toeplitz
    w = np.linalg.eigvalsh(scipy.linalg.toeplitz(col))
    ys = [0.0] + [w[0] + t * (w[-1] - w[0]) for t in ts]
    return col, w, [y for y in ys if np.min(np.abs(w - y)) * 1e8 > w[-1] + abs(y)]


def _inverse_or_none(a, y):
    try:
        return invert(shift(a, y))
    except SingularMatrix:
        return None


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(_shifted_problems())
def test_shifted_inverses_match_invert_property(problem):
    # on a fresh argument and on one whose kept run is longer (continued to
    # n steps for the midpoint of the spectrum): each (A - yI)^-1 within
    # n cond(A - yI) eps of invert's, or both raise SingularMatrix
    col, w, ys = problem
    n = len(col)
    wants = [_inverse_or_none(from_toeplitz(col), y) for y in ys]
    longer = from_toeplitz(col)
    tlalgebra._fom_columns(longer, np.array([0.5 * (w[0] + w[-1])]), n)
    for a in (from_toeplitz(col), longer):
        if any(want is None for want in wants):
            with pytest.raises(SingularMatrix):
                shifted_inverses(a, ys)
            continue
        for y, got, want in zip(ys, shifted_inverses(a, ys), wants, strict=True):
            cond = (w[-1] + abs(y)) / np.min(np.abs(w - y))
            want = to_dense(want)
            err = np.max(np.abs(to_dense(got) - want)) / np.max(np.abs(want))
            assert err <= n * cond * np.finfo(float).eps, (y, err, cond)


def test_shifted_inverses_need_a_tagged_matrix():
    a, _ = nonsymmetric_product(8, 4)
    with pytest.raises(DimensionError, match="tagged"):
        shifted_inverses(a, [-1.0])


# ------------------------------------------------------------------- norm_est

def test_norm_est_identity():
    a = compress(identity_tl(16))
    assert norm_est(lambda v: matvec(a, v), 16) == pytest.approx(1.0, abs=1e-10)


def test_norm_est_vs_dense():
    n = 128
    a = from_toeplitz(random_toeplitz_col(n, 28))
    want = np.linalg.norm(to_dense(a), 2)
    assert norm_est(lambda v: matvec(a, v), n) == pytest.approx(want, rel=1e-3)


def test_norm_est_indefinite_is_largest_magnitude():
    # the extreme eigenvalue of largest magnitude is the negative one
    n = 96
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    lam = np.linspace(-3.0, 2.0, n)
    m = (q * lam) @ q.T
    assert norm_est(lambda v: m @ v, n) == pytest.approx(3.0, rel=1e-3)
    assert norm_est(lambda v: -m @ v, n) == pytest.approx(3.0, rel=1e-3)


# ------------------------------------------------------------------- file I/O

def test_toeplitz_file_roundtrip(tmp_path):
    n = 10
    rng = np.random.default_rng(29)
    col = rng.uniform(-1, 1, n)
    path = tmp_path / "t.txt"
    write_toeplitz(path, from_toeplitz(col))
    back = read_toeplitz(path)
    assert np.array_equal(back.toeplitz, col)
    assert np.array_equal(to_dense(back), scipy.linalg.toeplitz(col))


def test_nonsymmetric_toeplitz_file_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("3\n4.0\n1.0\n0.0\n1.0\n0.5\n")
    with pytest.raises(DomainError,
                       match="first row entry 2 is 0.5 but first column entry 2 is 0.0"):
        read_toeplitz(path)
    a = from_toeplitz([4.0, 1.0, 0.0])
    with pytest.raises(DimensionError):
        write_toeplitz(path, TLMatrix(a.n, a.G, a.B))


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

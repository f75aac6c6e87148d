"""Toeplitz-like matrix arithmetic through displacement generators.

A matrix A is represented by a generator pair (G, B) of width r with

    Z1 A - A Zm1 = G B^T,

where Z_theta is the circulant-type down-shift (ones on the subdiagonal,
theta in the top-right corner), Z1 = Z_{+1} and Zm1 = Z_{-1}.  Toeplitz
matrices have r <= 2 and every operation below tracks generators only;
matrix-vector products run in O(r n log n) through FFTs of circulant and
skew-circulant factors.

Matrices that are exactly Toeplitz (or shifted Toeplitz) additionally
carry their first column/row so linear solves can use the Levinson
recursion without ever forming dense n x n arrays; every other solve
goes through one dense LU factorization.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrix

COMPRESS_TOL = 1e-14

# peak generator width and dense materialization sizes, for diagnostics
# and for asserting that large problems never densify
_STATS = {"peak_width": 0, "dense_calls": []}


def reset_stats():
    _STATS["peak_width"] = 0
    _STATS["dense_calls"] = []


def get_stats():
    return {"peak_width": _STATS["peak_width"],
            "dense_calls": tuple(_STATS["dense_calls"])}


def shift_matrix(n: int, theta: float) -> np.ndarray:
    """Dense Z_theta, mainly for tests."""
    z = np.zeros((n, n))
    z[np.arange(1, n), np.arange(n - 1)] = 1.0
    z[0, n - 1] = theta
    return z


def displacement(a: np.ndarray) -> np.ndarray:
    """Dense displacement Z1 A - A Zm1, mainly for tests."""
    n = a.shape[0]
    return shift_matrix(n, 1.0) @ a - a @ shift_matrix(n, -1.0)


# ---------------------------------------------------------------------------
# FFT kernel: A = (1/2) sum_k C1(g_k) Cm1(J b_k), with C1(v) the circulant and
# Cm1(v) = D^* C1(d v) D the skew-circulant of first column v, D = diag(d)
# ---------------------------------------------------------------------------

@functools.lru_cache
def _twiddle(n: int) -> np.ndarray:
    """d = exp(i pi k / n), shared read-only across matrices of size n."""
    d = np.exp(1j * np.pi * np.arange(n) / n)
    d.setflags(write=False)
    return d


def _forward(y, skew):
    """Spectra of the rows of y in the circulant (rfft) or skew (fft of
    d y) basis."""
    if skew:
        return np.fft.fft(_twiddle(y.shape[-1]) * y)
    return np.fft.rfft(y)


def _inverse(s, skew, n):
    if skew:
        return (np.conj(_twiddle(n)) * np.fft.ifft(s)).real
    return np.fft.irfft(s, n)


def _two_stage(x, s1, skew1, s2, skew2):
    """(1/2) sum_k S2_k S1_k x for the factors with row spectra s1[k], s2[k]
    of shape (r, .); x is (n,) or (n, p).  Each stage is one batched FFT
    over all generator columns, and the sum over k precedes the last inverse
    FFT: 2r + 2 transforms per column of x, in blocks that keep the work
    array at O(n max(r, p))."""
    x = np.asarray(x, dtype=float)
    xm = x[:, None] if x.ndim == 1 else x
    n, p = xm.shape
    out = np.empty((n, p))
    blk = max(1, p // max(s1.shape[0], 1))
    for j in range(0, p, blk):
        fx = _forward(xm[:, j:j + blk].T, skew1)             # (b, m1)
        w = _inverse(s1[:, None, :] * fx, skew1, n)           # (r, b, n)
        s = np.einsum("km,kbm->bm", s2, _forward(w, skew2))   # (b, m2)
        out[:, j:j + blk] = _inverse(s, skew2, n).T
    out *= 0.5
    return out[:, 0] if x.ndim == 1 else out


@dataclass(frozen=True, eq=False)
class TLMatrix:
    """Immutable Toeplitz-like matrix in generator form.

    ``toeplitz`` carries (first column, first row) when the matrix is
    exactly Toeplitz.  Solves and inverses choose their method from that
    data alone: Levinson for tagged matrices, with the symmetric inverse
    formula when the column equals the row, and one dense LU otherwise.
    """

    n: int
    G: np.ndarray
    B: np.ndarray
    toeplitz: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.G.shape != self.B.shape or self.G.shape[0] != self.n:
            raise DimensionError(
                f"generator shapes {self.G.shape}/{self.B.shape} for n={self.n}")
        _STATS["peak_width"] = max(_STATS["peak_width"], self.width)

    @property
    def width(self) -> int:
        return self.G.shape[1]

    @property
    def symmetric(self) -> bool:
        """True for exact Toeplitz data whose first column equals its row."""
        return self.toeplitz is not None and np.array_equal(*self.toeplitz)

    # Spectra of the kernel's factors, computed on first use.  ``replace``
    # builds a new object, so results of scale/compress start uncached.
    @functools.cached_property
    def _spec_g(self) -> np.ndarray:
        """rfft of each g_k: the spectra of C1(g_k), shape (r, n//2 + 1)."""
        return _forward(self.G.T, skew=False)

    @functools.cached_property
    def _spec_b(self) -> np.ndarray:
        """fft(d J b_k): the twiddled spectra of Cm1(J b_k), shape (r, n)."""
        return _forward(self.B[::-1].T, skew=True)


def from_toeplitz(col, row=None) -> TLMatrix:
    """Generator pair of a Toeplitz matrix from its first column and row.

    The displacement of a Toeplitz matrix is e1 r^T + s en^T with entries
    read off the defining diagonals, so the width is exactly 2.
    """
    col = np.asarray(col, dtype=float)
    if row is None:
        row = col.copy()
    row = np.asarray(row, dtype=float)
    n = len(col)
    if len(row) != n or col[0] != row[0]:
        raise DimensionError("first column/row must agree in length and corner")
    # with t_k = col[k] (k >= 0), row[-k] (k < 0):
    # r_{j-1} = t_{n-j} - t_{-j} (j < n), r_{n-1} = 2 t_0;
    # s_0 = 0, s_{i-1} = t_{i-1-n} + t_{i-1} (i >= 2)
    r_vec = np.append(col[:0:-1] - row[1:], 2.0 * col[0])
    s_vec = np.append(0.0, row[:0:-1] + col[1:])
    e1 = np.zeros(n)
    e1[0] = 1.0
    en = np.zeros(n)
    en[-1] = 1.0
    g = np.column_stack([e1, s_vec])
    b = np.column_stack([r_vec, en])
    return TLMatrix(n, g, b, toeplitz=(col.copy(), row.copy()))


def identity_tl(n: int) -> TLMatrix:
    return from_toeplitz(np.concatenate([[1.0], np.zeros(n - 1)]))


def matvec(a: TLMatrix, x):
    """A @ x from generators: A = (1/2) sum_k C1(g_k) Cm1(J b_k)."""
    return _two_stage(x, a._spec_b, True, a._spec_g, False)


def matvec_t(a: TLMatrix, x):
    """A^T @ x from the spectra of A: for real v, C1(v)^T has the spectrum
    conj(fft(v)) and Cm1(v)^T the twiddled spectrum conj(fft(d v))."""
    return _two_stage(x, np.conj(a._spec_g), False, np.conj(a._spec_b), True)


def to_dense(a: TLMatrix) -> np.ndarray:
    """Dense A.  Untagged matrices are filled from the first column and row
    along the diagonals by the displacement recurrence
    A[i, j+1] = A[i-1, j] - (G B^T)[i, j]."""
    _STATS["dense_calls"].append(a.n)
    if a.toeplitz is not None:
        col, row = a.toeplitz
        return scipy.linalg.toeplitz(col, row)
    n = a.n
    e1 = np.zeros(n)
    e1[0] = 1.0
    out = np.empty((n, n))
    np.matmul(-a.G, a.B[:-1].T, out=out[:, 1:])
    out[0] = matvec_t(a, e1)
    out[:, 0] = matvec(a, e1)
    for i in range(1, n):
        out[i, 1:] += out[i - 1, :-1]
    return out


def add(a: TLMatrix, b: TLMatrix) -> TLMatrix:
    if a.n != b.n:
        raise DimensionError(f"size mismatch {a.n} vs {b.n}")
    toe = None
    if a.toeplitz is not None and b.toeplitz is not None:
        toe = (a.toeplitz[0] + b.toeplitz[0], a.toeplitz[1] + b.toeplitz[1])
    return TLMatrix(a.n, np.hstack([a.G, b.G]), np.hstack([a.B, b.B]), toeplitz=toe)


def scale(a: TLMatrix, alpha: float) -> TLMatrix:
    toe = None if a.toeplitz is None else (alpha * a.toeplitz[0], alpha * a.toeplitz[1])
    return replace(a, G=alpha * a.G, toeplitz=toe)


def shift(a: TLMatrix, z: float) -> TLMatrix:
    """A - z I, preserving an exact-Toeplitz tag for Levinson solves."""
    e1 = np.zeros(a.n)
    e1[0] = 1.0
    en = np.zeros(a.n)
    en[-1] = 1.0
    g = np.column_stack([a.G, e1])
    b = np.column_stack([a.B, -2.0 * z * en])
    toe = None
    if a.toeplitz is not None:
        col = a.toeplitz[0].copy()
        row = a.toeplitz[1].copy()
        col[0] -= z
        row[0] -= z
        toe = (col, row)
    return TLMatrix(a.n, g, b, toeplitz=toe)


def multiply(x: TLMatrix, y: TLMatrix) -> TLMatrix:
    """Generator product rule: S(XY) = S(X)Y + X S(Y) - 2 X e1 en^T Y."""
    if x.n != y.n:
        raise DimensionError(f"size mismatch {x.n} vs {y.n}")
    n = x.n
    e1 = np.zeros(n)
    e1[0] = 1.0
    en = np.zeros(n)
    en[-1] = 1.0
    g = np.column_stack([x.G, matvec(x, y.G), -2.0 * matvec(x, e1)])
    b = np.column_stack([matvec_t(y, x.B), y.B, matvec_t(y, en)])
    return compress(TLMatrix(n, g, b))


def compress(a: TLMatrix) -> TLMatrix:
    """Minimal-width generator via QR of the panels and an inner SVD."""
    if a.width == 0:
        return a
    qg, rg = np.linalg.qr(a.G)
    qb, rb = np.linalg.qr(a.B)
    u, sv, vt = np.linalg.svd(rg @ rb.T)
    if sv.size == 0 or sv[0] == 0.0:
        keep = 0
    else:
        # the panel-scale floor discards rounding residue left by exact
        # cancellations (e.g. A + (-A)), which the relative rule would keep
        floor = COMPRESS_TOL * np.linalg.norm(rg, 2) * np.linalg.norm(rb, 2)
        keep = int(np.sum(sv > max(COMPRESS_TOL * sv[0], floor)))
    g = qg @ u[:, :keep] * sv[:keep]
    b = qb @ vt[:keep].T
    return replace(a, G=g, B=b)


def _levinson(col_row, rhs):
    """solve_toeplitz, with numpy's singular-matrix error as SingularMatrix."""
    try:
        return scipy.linalg.solve_toeplitz(col_row, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def solve(a: TLMatrix, rhs):
    """Solve A x = rhs, using the Levinson recursion when A carries exact
    Toeplitz data and one dense LU otherwise."""
    rhs = np.asarray(rhs, dtype=float)
    if a.toeplitz is not None:
        return _levinson(a.toeplitz, rhs)
    return scipy.linalg.lu_solve(_lu_factor(a), rhs)


def solve_t(a: TLMatrix, rhs):
    """Solve A^T x = rhs: Levinson with column and row swapped, or the
    transposed solve of the LU of A."""
    rhs = np.asarray(rhs, dtype=float)
    if a.toeplitz is not None:
        col, row = a.toeplitz
        return _levinson((row, col), rhs)
    return scipy.linalg.lu_solve(_lu_factor(a), rhs, trans=1)


def _lu_factor(a: TLMatrix):
    """LU factors of the dense A.  lu_factor only warns on an exact zero
    pivot; here that raises SingularMatrix instead."""
    dense = to_dense(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(dense, overwrite_a=True)
    if not np.all(np.diagonal(lu)):
        raise SingularMatrix("exactly zero pivot in the LU factorization")
    return lu, piv


def invert(a: TLMatrix) -> TLMatrix:
    """Generator pair of A^{-1} via structured solves.

    Symmetric Toeplitz data: S(A^{-1}) = -(Z1 A^{-1}B)(Z_{-1}^T A^{-1}G)^T,
    width tau from 2 tau Levinson solves.  Every other matrix, width
    tau + 2 from

    S(A^{-1}) = -(A^{-1}G)(A^{-T}B)^T + 2 e1 (A^{-T}en)^T + 2 (A^{-1}e1) en^T,

    compressed afterwards.
    """
    n, r = a.n, a.width
    # stack the right-hand sides: without exact Toeplitz data A is
    # densified and factored once per invert.  Levinson is reached through
    # the module-level solve/solve_t, where a tracer can count it.
    if a.symmetric:
        x = solve(a, np.hstack([a.B, a.G]))
        # Z1 x is a cyclic down-shift; Zm1^T x is an up-shift negating the wrap
        g = -np.roll(x[:, :r], 1, axis=0)
        b = np.roll(x[:, r:], -1, axis=0)
        b[-1] = -b[-1]
        return compress(TLMatrix(n, g, b))
    e1 = np.zeros((n, 1))
    e1[0] = 1.0
    en = np.zeros((n, 1))
    en[-1] = 1.0
    rhs, rhs_t = np.hstack([a.G, e1]), np.hstack([a.B, en])
    if a.toeplitz is not None:
        x, xt = solve(a, rhs), solve_t(a, rhs_t)
    else:
        lu = _lu_factor(a)
        x = scipy.linalg.lu_solve(lu, rhs)
        xt = scipy.linalg.lu_solve(lu, rhs_t, trans=1)
    g = np.hstack([-x[:, :r], e1, 2.0 * x[:, r:]])
    b = np.hstack([xt[:, :r], 2.0 * xt[:, r:], en])
    return compress(TLMatrix(n, g, b))


def norm_est(a: TLMatrix) -> float:
    """Spectral norm estimate by power iteration on A^T A from a fixed
    random start: at least 30 iterations, then until the estimate changes
    by less than 1e-6, at most 100."""
    v = np.random.default_rng(0).standard_normal(a.n)
    v /= np.linalg.norm(v)
    est = 0.0
    for it in range(100):
        w = matvec(a, v)
        v = matvec_t(a, w)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        new = np.sqrt(nv)
        v /= nv
        if it >= 30 and abs(new - est) <= 1e-6 * new:
            return float(new)
        est = new
    return float(est)


# ---------------------------------------------------------------------------
# Toeplitz text files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToeplitzInput:
    """First column and first row of an n x n Toeplitz matrix."""

    col: np.ndarray
    row: np.ndarray

    def __post_init__(self):
        if len(self.col) != len(self.row) or self.col[0] != self.row[0]:
            raise DimensionError("first column/row must agree in length and corner")

    def matrix(self) -> TLMatrix:
        return from_toeplitz(self.col, self.row)


def read_toeplitz(path) -> ToeplitzInput:
    """Text format: first line n, then the n first-column entries, then the
    n-1 remaining first-row entries (t_{-1} .. t_{-(n-1)}), one per line."""
    with open(path) as fh:
        tokens = fh.read().split()
    n = int(tokens[0])
    vals = np.array([float(t) for t in tokens[1:]], dtype=float)
    if len(vals) != 2 * n - 1:
        raise DimensionError(f"expected {2 * n - 1} entries, got {len(vals)}")
    col = vals[:n]
    row = np.concatenate([[col[0]], vals[n:]])
    return ToeplitzInput(col, row)


def write_toeplitz(path, tin: ToeplitzInput):
    n = len(tin.col)
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for v in tin.col:
            fh.write(f"{float(v)!r}\n")
        for v in tin.row[1:]:
            fh.write(f"{float(v)!r}\n")

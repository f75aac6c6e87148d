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
recursion without ever forming dense n x n arrays.
"""

from __future__ import annotations

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
# FFT kernels: circulant C1(v) and skew-circulant Cm1(v), v = first column
# ---------------------------------------------------------------------------

def _circ_matvec(v, x):
    fx = np.fft.fft(x, axis=0)
    fv = np.fft.fft(v)
    return np.fft.ifft(fv[:, None] * fx, axis=0).real


def _skew_matvec(v, x):
    n = len(v)
    d = np.exp(1j * np.pi * np.arange(n) / n)
    fx = np.fft.fft(d[:, None] * x, axis=0)
    fv = np.fft.fft(d * v)
    return (np.conj(d)[:, None] * np.fft.ifft(fv[:, None] * fx, axis=0)).real


def _circ_t(v):
    """First column of C1(v)^T."""
    w = np.empty_like(v)
    w[0] = v[0]
    w[1:] = v[:0:-1]
    return w


def _skew_t(v):
    """First column of Cm1(v)^T."""
    w = np.empty_like(v)
    w[0] = v[0]
    w[1:] = -v[:0:-1]
    return w


@dataclass(frozen=True, eq=False)
class TLMatrix:
    """Immutable Toeplitz-like matrix in generator form.

    ``toeplitz`` carries (first column, first row) when the matrix is
    exactly Toeplitz; ``symmetric`` enables the structured inverse.
    """

    n: int
    G: np.ndarray
    B: np.ndarray
    toeplitz: tuple[np.ndarray, np.ndarray] | None = None
    symmetric: bool = False

    def __post_init__(self):
        if self.G.shape != self.B.shape or self.G.shape[0] != self.n:
            raise DimensionError(
                f"generator shapes {self.G.shape}/{self.B.shape} for n={self.n}")
        _STATS["peak_width"] = max(_STATS["peak_width"], self.width)

    @property
    def width(self) -> int:
        return self.G.shape[1]


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
    # t_k for k = -(n-1)..(n-1):  t[k] = col[k] (k>=0), row[-k] (k<0)
    def t(k):
        return col[k] if k >= 0 else row[-k]
    r_vec = np.empty(n)
    for j in range(1, n):
        r_vec[j - 1] = t(n - j) - t(-j)
    r_vec[n - 1] = 2.0 * t(0)
    s_vec = np.empty(n)
    s_vec[0] = 0.0
    for i in range(2, n + 1):
        s_vec[i - 1] = t(i - 1 - n) + t(i - 1)
    e1 = np.zeros(n)
    e1[0] = 1.0
    en = np.zeros(n)
    en[-1] = 1.0
    g = np.column_stack([e1, s_vec])
    b = np.column_stack([r_vec, en])
    sym = bool(np.array_equal(col, row))
    return TLMatrix(n, g, b, toeplitz=(col.copy(), row.copy()), symmetric=sym)


def identity_tl(n: int) -> TLMatrix:
    return from_toeplitz(np.concatenate([[1.0], np.zeros(n - 1)]))


def matvec(a: TLMatrix, x):
    """A @ x from generators: A = (1/2) sum_k C1(g_k) Cm1(J b_k)."""
    x = np.asarray(x, dtype=float)
    vec = x.ndim == 1
    xm = x[:, None] if vec else x
    out = np.zeros_like(xm)
    for k in range(a.width):
        w = _skew_matvec(a.B[::-1, k], xm)
        out += _circ_matvec(a.G[:, k], w)
    out *= 0.5
    return out[:, 0] if vec else out


def matvec_t(a: TLMatrix, x):
    """A^T @ x via the transpose closed forms of the FFT factors."""
    x = np.asarray(x, dtype=float)
    vec = x.ndim == 1
    xm = x[:, None] if vec else x
    out = np.zeros_like(xm)
    for k in range(a.width):
        w = _circ_matvec(_circ_t(a.G[:, k]), xm)
        out += _skew_matvec(_skew_t(a.B[::-1, k]), w)
    out *= 0.5
    return out[:, 0] if vec else out


def to_dense(a: TLMatrix) -> np.ndarray:
    _STATS["dense_calls"].append(a.n)
    if a.toeplitz is not None:
        col, row = a.toeplitz
        return scipy.linalg.toeplitz(col, row)
    return matvec(a, np.eye(a.n))


def add(a: TLMatrix, b: TLMatrix) -> TLMatrix:
    if a.n != b.n:
        raise DimensionError(f"size mismatch {a.n} vs {b.n}")
    toe = None
    if a.toeplitz is not None and b.toeplitz is not None:
        toe = (a.toeplitz[0] + b.toeplitz[0], a.toeplitz[1] + b.toeplitz[1])
    return TLMatrix(a.n, np.hstack([a.G, b.G]), np.hstack([a.B, b.B]),
                    toeplitz=toe, symmetric=a.symmetric and b.symmetric)


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
    return TLMatrix(a.n, g, b, toeplitz=toe, symmetric=a.symmetric)


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


def compress(a: TLMatrix, tol: float = COMPRESS_TOL) -> TLMatrix:
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
        floor = tol * np.linalg.norm(rg, 2) * np.linalg.norm(rb, 2)
        keep = int(np.sum(sv > max(tol * sv[0], floor)))
    g = qg @ u[:, :keep] * sv[:keep]
    b = qb @ vt[:keep].T
    return replace(a, G=g, B=b)


def solve(a: TLMatrix, rhs):
    """Solve A x = rhs, using the Levinson recursion when A carries exact
    Toeplitz data and a dense factorization otherwise."""
    rhs = np.asarray(rhs, dtype=float)
    if a.toeplitz is not None:
        col, row = a.toeplitz
        try:
            return scipy.linalg.solve_toeplitz((col, row), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from exc
    dense = to_dense(a)
    try:
        return scipy.linalg.solve(dense, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def solve_t(a: TLMatrix, rhs):
    """Solve A^T x = rhs."""
    if a.symmetric:
        return solve(a, rhs)
    if a.toeplitz is not None:
        col, row = a.toeplitz
        return scipy.linalg.solve_toeplitz((row, col), np.asarray(rhs, dtype=float))
    dense = to_dense(a)
    return scipy.linalg.solve(dense.T, np.asarray(rhs, dtype=float))


def invert(a: TLMatrix) -> TLMatrix:
    """Generator pair of A^{-1} via structured solves.

    Symmetric case: S(A^{-1}) = -(Z1 A^{-1}B)(Z_{-1}^T A^{-1}G)^T, width
    tau from 2 tau solves.  General case: width tau + 2 from

    S(A^{-1}) = -(A^{-1}G)(A^{-T}B)^T + 2 e1 (A^{-T}en)^T + 2 (A^{-1}e1) en^T,

    compressed afterwards.
    """
    n, r = a.n, a.width
    # stack the right-hand sides: without exact Toeplitz data every solve
    # call densifies and factors the matrix anew
    if a.symmetric:
        x = solve(a, np.hstack([a.B, a.G]))
        # Z1 x is a cyclic down-shift; Zm1^T x is an up-shift negating the wrap
        g = -np.roll(x[:, :r], 1, axis=0)
        b = np.roll(x[:, r:], -1, axis=0)
        b[-1] = -b[-1]
        return compress(TLMatrix(n, g, b, symmetric=True))
    e1 = np.zeros((n, 1))
    e1[0] = 1.0
    en = np.zeros((n, 1))
    en[-1] = 1.0
    x = solve(a, np.hstack([a.G, e1]))
    xt = solve_t(a, np.hstack([a.B, en]))
    g = np.hstack([-x[:, :r], e1, 2.0 * x[:, r:]])
    b = np.hstack([xt[:, :r], 2.0 * xt[:, r:], en])
    return compress(TLMatrix(n, g, b))


def norm_est(a: TLMatrix, max_iters: int = 100, seed: int = 0) -> float:
    """Spectral norm estimate by power iteration on A^T A: at least 30
    iterations, then until the estimate changes by less than 1e-6."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.n)
    v /= np.linalg.norm(v)
    est = 0.0
    for it in range(max_iters):
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

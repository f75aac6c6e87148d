"""Toeplitz-like matrix arithmetic through displacement generators.

A matrix A is represented by a generator pair (G, B) of width r with

    Z1 A - A Zm1 = G B^T,

where Z_theta is the circulant-type down-shift (ones on the subdiagonal,
theta in the top-right corner), Z1 = Z_{+1} and Zm1 = Z_{-1}.  Toeplitz
matrices have r <= 2 and every operation below tracks generators only;
matrix-vector products run in O(r n log n) through FFTs of circulant and
skew-circulant factors.

Exactly symmetric Toeplitz matrices carry their first column (the tag) and
``from_toeplitz``'s width-2 generator, rebuilt after sums, shifts and scalings.
Their solves run the Levinson recursion without dense n x n arrays, and an
inverse's generator is written in O(n) from x = A^{-1} e1.  ``invert`` takes
x from one Levinson solve; ``shifted_inverses`` takes x for all shifts of A
from one Lanczos run of A from e1, kept on A for later calls, where that is
cheaper, and from Levinson where it is not.  Any other inverse takes one
dense LU.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import DimensionError, DomainError, SingularMatrix

COMPRESS_TOL = 1e-14
_EPS = np.finfo(float).eps
_CHECK = 8  # Lanczos steps between the convergence checks of shifted_inverses
_KEEP = threading.Lock()  # held to compare and replace a kept Lanczos run


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

    ``toeplitz`` carries the first column when the matrix is exactly
    symmetric Toeplitz.  Solves need that tag (Levinson); inverses choose
    their method from it alone: the closed-form generator of A^{-1} from
    A^{-1} e1 for tagged matrices, one dense LU otherwise.
    """

    n: int
    G: np.ndarray
    B: np.ndarray
    toeplitz: np.ndarray | None = None
    # shifted_inverses's Lanczos run of A from e1, (basis, alpha, beta): never
    # changed in place, only replaced whole by a longer run
    _krylov: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.G.shape != self.B.shape or self.G.shape[0] != self.n:
            raise DimensionError(
                f"generator shapes {self.G.shape}/{self.B.shape} for n={self.n}")
        if self.toeplitz is not None and np.shape(self.toeplitz) != (self.n,):
            raise DimensionError(f"tag shape {np.shape(self.toeplitz)} for n={self.n}")

    def __len__(self) -> int:
        return self.n

    @property
    def width(self) -> int:
        return self.G.shape[1]

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


def _require_finite(name: str, v: np.ndarray):
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise DomainError(f"first {name} entry {bad[0]} is {v[bad[0]]}, "
                          "Toeplitz entries must be finite")


def _unit(n: int, k: int) -> np.ndarray:
    """The unit vector e_k of length n; k = -1 gives en."""
    u = np.zeros(n)
    u[k] = 1.0
    return u


def from_toeplitz(col) -> TLMatrix:
    """Generator pair of the symmetric Toeplitz matrix with first column
    col, tagged with that column.

    The displacement of a Toeplitz matrix is e1 r^T + s en^T with entries
    read off the defining diagonals, so the width is exactly 2.
    """
    col = np.asarray(col, dtype=float)
    if col.ndim != 1 or col.size == 0:
        raise DimensionError(f"need a nonempty first column, got shape {col.shape}")
    _require_finite("column", col)
    n = len(col)
    # with t_k = t_{-k} = col[k]:
    # r_{j-1} = t_{n-j} - t_j (j < n), r_{n-1} = 2 t_0;
    # s_0 = 0, s_{i-1} = t_{n+1-i} + t_{i-1} (i >= 2)
    r_vec = np.append(col[:0:-1] - col[1:], 2.0 * col[0])
    s_vec = np.append(0.0, col[:0:-1] + col[1:])
    g = np.column_stack([_unit(n, 0), s_vec])
    b = np.column_stack([r_vec, _unit(n, -1)])
    return TLMatrix(n, g, b, toeplitz=col.copy())


def identity_tl(n: int) -> TLMatrix:
    return from_toeplitz(_unit(n, 0))


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
    if a.toeplitz is not None:
        return scipy.linalg.toeplitz(a.toeplitz)
    n = a.n
    e1 = _unit(n, 0)
    out = np.empty((n, n))
    np.matmul(-a.G, a.B[:-1].T, out=out[:, 1:])
    out[0] = matvec_t(a, e1)
    out[:, 0] = matvec(a, e1)
    for i in range(1, n):
        out[i, 1:] += out[i - 1, :-1]
    return out


def add(a: TLMatrix, b: TLMatrix) -> TLMatrix:
    """A + B, rebuilt from the summed column if both are tagged, else compressed."""
    if a.n != b.n:
        raise DimensionError(f"size mismatch {a.n} vs {b.n}")
    if a.toeplitz is not None and b.toeplitz is not None:
        return from_toeplitz(a.toeplitz + b.toeplitz)
    return compress(TLMatrix(a.n, np.hstack([a.G, b.G]), np.hstack([a.B, b.B])))


def scale(a: TLMatrix, alpha: float) -> TLMatrix:
    """alpha A; a tagged A is rebuilt from its scaled column."""
    if a.toeplitz is not None:
        return from_toeplitz(alpha * a.toeplitz)
    return replace(a, G=alpha * a.G)


def shift(a: TLMatrix, z: float) -> TLMatrix:
    """A - z I: A itself for z = 0, else a tagged A is rebuilt from its
    shifted column and an untagged one gains the generator column -2 z e1 en^T."""
    if z == 0.0:
        return a
    if a.toeplitz is not None:
        return from_toeplitz(a.toeplitz - z * _unit(a.n, 0))
    g = np.column_stack([a.G, _unit(a.n, 0)])
    b = np.column_stack([a.B, -2.0 * z * _unit(a.n, -1)])
    return TLMatrix(a.n, g, b)


def multiply(x: TLMatrix, y: TLMatrix) -> TLMatrix:
    """Generator product rule: S(XY) = S(X)Y + X S(Y) - 2 X e1 en^T Y."""
    if x.n != y.n:
        raise DimensionError(f"size mismatch {x.n} vs {y.n}")
    n = x.n
    g = np.column_stack([x.G, matvec(x, y.G), -2.0 * matvec(x, _unit(n, 0))])
    b = np.column_stack([matvec_t(y, x.B), y.B, matvec_t(y, _unit(n, -1))])
    return compress(TLMatrix(n, g, b))


def compress(a: TLMatrix) -> TLMatrix:
    """Minimal-width generator via QR of the panels and an inner SVD."""
    if a.width == 0:
        return a
    qg, rg = np.linalg.qr(a.G)
    qb, rb = np.linalg.qr(a.B)
    u, sv, vt = np.linalg.svd(rg @ rb.T)
    # sv[0] <= |rg| |rb|, so this floor is never below COMPRESS_TOL * sv[0],
    # and it discards the rounding residue of exact cancellations (A + (-A))
    floor = COMPRESS_TOL * np.linalg.norm(rg, 2) * np.linalg.norm(rb, 2)
    keep = int(np.sum(sv > floor))
    g = qg @ u[:, :keep] * sv[:keep]
    b = qb @ vt[:keep].T
    return replace(a, G=g, B=b)


def solve(a: TLMatrix, rhs):
    """Solve A x = rhs by the Levinson recursion on a tagged A; an untagged
    matrix is inverted, not solved.  numpy's singular-matrix error and an
    overflowing recursion, which returns nonfinite values silently, raise
    SingularMatrix."""
    if a.toeplitz is None:
        raise DimensionError("solve needs a tagged matrix; invert an untagged one")
    try:
        x = scipy.linalg.solve_toeplitz(a.toeplitz, np.asarray(rhs, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("Levinson recursion overflowed to nonfinite values")
    return x


# a tagged matrix is its own transpose
solve_t = solve


def _gohberg_semencul(x) -> TLMatrix:
    """Generator of the symmetric Toeplitz X = A^{-1} from x = X e1.  With
    Z the down-shift without wrap, J the reversal and w = Z J x, the
    persymmetry en^T X = (Jx)^T and the Stein form of Gohberg-Semencul,
    X - Z X Z^T = (x x^T - w w^T)/x0, give in O(n) the width-4 generator

    S(X) = (x + w) en^T - x (Z^T x)^T/x0 + w (Z^T w)^T/x0 + e1 (Jx)^T,

    compressed afterwards."""
    n = len(x)
    if x[0] == 0.0:
        raise SingularMatrix("A^-1 e1 has first entry 0")
    w = np.append(0.0, x[:0:-1])
    # Z^T v is the up-shift of v
    g = np.column_stack([x + w, -x / x[0], w / x[0], _unit(n, 0)])
    b = np.column_stack([_unit(n, -1), np.append(x[1:], 0.0),
                         np.append(w[1:], 0.0), x[::-1]])
    return compress(TLMatrix(n, g, b))


def invert(a: TLMatrix) -> TLMatrix:
    """Generator pair of A^{-1} via structured solves.

    Tagged data: the _gohberg_semencul generator of x = A^{-1} e1, one
    Levinson solve; it never reads A's generator.  Every other matrix,
    width tau + 2 from

    S(A^{-1}) = -(A^{-1}G)(A^{-T}B)^T + 2 e1 (A^{-T}en)^T + 2 (A^{-1}e1) en^T,

    with the right-hand sides stacked on one LU of the dense A, and
    compressed afterwards.  For many shifts A - yI of one tagged A,
    shifted_inverses can replace the Levinson solves by one Lanczos run.
    """
    n, r = a.n, a.width
    if a.toeplitz is not None:
        # Levinson is reached through the module-level solve, where a
        # tracer can count it
        return _gohberg_semencul(solve(a, _unit(n, 0)))
    e1, en = _unit(n, 0)[:, None], _unit(n, -1)[:, None]
    dense = to_dense(a)
    if not np.all(np.isfinite(dense)):
        raise DomainError("the densified matrix has nonfinite entries")
    # an exactly zero pivot raises, as in matfun's dense inverse
    lu, piv, info = lapack.dgetrf(dense, overwrite_a=True)
    if info != 0:
        raise SingularMatrix(f"dense LU: LAPACK info = {info}")
    x = lapack.dgetrs(lu, piv, np.hstack([a.G, e1]))[0]
    xt = lapack.dgetrs(lu, piv, np.hstack([a.B, en]), trans=1)[0]
    g = np.hstack([-x[:, :r], e1, 2.0 * x[:, r:]])
    b = np.hstack([xt[:, :r], 2.0 * xt[:, r:], en])
    return compress(TLMatrix(n, g, b))


def shifted_inverses(a: TLMatrix, shifts, c: float, d: float) -> list:
    """Generators of (A - yI)^{-1} for each shift y, for a tagged A whose
    spectrum lies in [c, d]: the _gohberg_semencul generator of
    x_y = (A - yI)^{-1} e1, as in invert.

    All shifted systems share the Krylov space of A from e1, so one
    _lanczos run serves them.  x_y is the FOM solution V_k (T_k - yI)^{-1} e1,
    from one eigh_tridiagonal of T_k, at the first k = _CHECK, 2 _CHECK, ...
    whose FOM residual beta_k |e_k^T (T_k - yI)^{-1} e1| is at most
    eps ||T_k - yI|| ||x_y||: a backward error at the rounding level.  The run
    is kept on A and continued by later calls; which k a shift takes does
    not depend on how many steps were kept, so a call's result does not either.

    The run is made when k_y = ceil(sqrt(kappa_y) ln(2/eps) / 2), CG's
    Chebyshev bound with kappa_y the condition number of A - yI on [c, d],
    has 2 k_y^2 <= s n for every one of the s shifts, and it stops after
    isqrt(s n / 2) steps.  The rule weighs k steps, matvecs and 2 k^2 n
    flops of reorthogonalization, against s Levinson solves of O(n^2) each;
    a run of k steps cost as much as 1.1 to 1.9 k^2 / n solves for n = 4096
    down to 256 (numpy, one core of an x86 host).  Each shift that does not
    converge within the run, or whose T_k - yI turns numerically singular,
    takes its own Levinson solve, as do all shifts when a shift lies in
    [c, d] or the bound fails: small n, high kappa.
    """
    if a.toeplitz is None:
        raise DimensionError("shifted_inverses needs a tagged matrix")
    y = np.asarray(shifts, dtype=float)
    n, steps = a.n, min(a.n, math.isqrt(len(y) * a.n // 2))
    cols = [None] * len(y)
    if y.size and np.all((y < c) | (y > d)):
        near, far = np.sort([np.abs(c - y), np.abs(d - y)], axis=0)
        if np.max(np.ceil(0.5 * np.sqrt(far / near) * np.log(2.0 / _EPS))) <= steps:
            cols = _fom_columns(a, y, steps)
    return [_gohberg_semencul(solve(shift(a, yj), _unit(n, 0)) if x is None else x)
            for x, yj in zip(cols, y)]


def _fom_columns(a: TLMatrix, y: np.ndarray, steps: int) -> list:
    """shifted_inverses's FOM solutions x_y of (A - yI) x = e1 from at most
    ``steps`` steps of A's Lanczos run, None where a shift does not converge;
    a._krylov is replaced by the run when this call continued it."""
    basis, alpha, beta = a._krylov or (_unit(a.n, 0)[None], (), ())
    more = None
    cols = [None] * len(y)
    for check in range(_CHECK, steps + 1, _CHECK):
        while len(alpha) < check and not (beta and beta[-1] == 0.0):
            # the module-level matvec, where a tracer can count it
            more = more or _lanczos(lambda v: matvec(a, v), basis, alpha, beta,
                                    rows=steps + 1)
            basis, alpha, beta = next(more)
        k = min(check, len(alpha))  # a zero beta ends the run: T_k is exact
        theta, s = scipy.linalg.eigh_tridiagonal(alpha[:k], beta[:k - 1])
        for j in [j for j, x in enumerate(cols) if x is None]:
            gap = theta - y[j]
            top = np.max(np.abs(gap))
            if np.min(np.abs(gap)) <= _EPS * top:
                continue  # T_k - yI numerically singular: no division
            z = s @ (s[0] / gap)
            if beta[k - 1] * abs(z[-1]) <= _EPS * top * np.linalg.norm(z):
                cols[j] = basis[:k].T @ z
        if k < check or all(x is not None for x in cols):
            break
    with _KEEP:  # another thread may have kept a longer run meanwhile
        if len(alpha) > len((a._krylov or ((), ()))[1]):
            object.__setattr__(a, "_krylov", (basis, tuple(alpha), tuple(beta)))
    return cols


def _lanczos(apply, basis, alpha=(), beta=(), rows=16):
    """Fully reorthogonalized Lanczos on the symmetric v -> apply(v),
    continued after k = len(alpha) steps from the orthonormal rows v0..vk of
    basis.  After each step it yields (basis, alpha, beta): the Lanczos
    vectors as the leading rows of a buffer of its own (``rows`` rows to
    start, doubled when full; ``basis`` itself is only read), the diagonal
    alpha and the norms beta of each step's residual, T's off-diagonal and
    then beta_k.  It stops after a zero beta."""
    k = len(alpha)
    buf = np.empty((max(rows, k + 2), basis.shape[1]))
    buf[:k + 1] = basis[:k + 1]
    alpha, beta = list(alpha), list(beta)
    while True:
        w = apply(buf[k])
        alpha.append(buf[k] @ w)
        q = buf[:k + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice is enough
            w = w - q.T @ (q @ w)
        beta.append(np.linalg.norm(w))
        if beta[-1] != 0.0:
            if k + 2 > len(buf):
                buf = np.concatenate([buf, np.empty_like(buf)])
            buf[k + 1] = w / beta[-1]
        k += 1
        yield buf, alpha, beta
        if beta[-1] == 0.0:
            return


def norm_est(apply, n: int) -> float:
    """Lower estimate of the 2-norm of the symmetric operator v -> apply(v) on
    R^n: the largest |Ritz value| of a _lanczos run from a fixed random
    start, after n steps or once it moves by at most 1e-4 relative."""
    q = np.random.default_rng(0).standard_normal(n)
    ritz = []
    for _, alpha, beta in _lanczos(apply, (q / np.linalg.norm(q))[None]):
        theta = scipy.linalg.eigvalsh_tridiagonal(alpha, beta[:-1])
        ritz.append(float(np.max(np.abs(theta))))
        if len(alpha) == n or (len(ritz) > 1 and abs(ritz[-1] - ritz[-2]) <= 1e-4 * ritz[-1]):
            break
    return ritz[-1]


def deviation(factors) -> float:
    """norm_est of v -> v - F1 (... (Fk v)): ||I - F1 ... Fk||_2 from below."""
    return norm_est(lambda v: v - functools.reduce(
        lambda w, f: matvec(f, w), reversed(factors), v), factors[0].n)


# ---------------------------------------------------------------------------
# Toeplitz text files
# ---------------------------------------------------------------------------

def read_toeplitz(path) -> TLMatrix:
    """Text format: first line n, then the n first-column entries, then the
    n-1 remaining first-row entries (t_{-1} .. t_{-(n-1)}), one per line.
    The row must repeat the column: only symmetric data is accepted."""
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        n = int(tokens[0])
    except (IndexError, ValueError):
        n = 0
    if n < 1:
        got = repr(tokens[0]) if tokens else "an empty file"
        raise DimensionError(f"the first token must be the size, a positive integer, got {got}")
    vals = np.empty(len(tokens) - 1)
    for k, t in enumerate(tokens[1:]):
        try:
            vals[k] = float(t)
        except ValueError:
            name, i = ("column", k) if k < n else ("row", k - n + 1)
            raise DomainError(f"first {name} entry {i} is {t!r}, "
                              "Toeplitz entries must be numbers") from None
    if len(vals) != 2 * n - 1:
        raise DimensionError(f"expected {2 * n - 1} entries, got {len(vals)}")
    col = vals[:n]
    row = np.concatenate([[col[0]], vals[n:]])
    # finite entries first: a nan never equals itself
    _require_finite("column", col)
    _require_finite("row", row)
    if not np.array_equal(row, col):
        k = np.flatnonzero(row != col)[0]
        raise DomainError(f"first row entry {k} is {row[k]} but first column "
                          f"entry {k} is {col[k]}, the matrix must be symmetric")
    return from_toeplitz(col)


def write_toeplitz(path, a: TLMatrix):
    """Write a tagged (symmetric Toeplitz) matrix in the read_toeplitz format."""
    if a.toeplitz is None:
        raise DimensionError("only a tagged (symmetric Toeplitz) matrix can be written")
    with open(path, "w") as fh:
        fh.write(f"{a.n}\n")
        for v in np.concatenate([a.toeplitz, a.toeplitz[1:]]):
            fh.write(f"{float(v)!r}\n")

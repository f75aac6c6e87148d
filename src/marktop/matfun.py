"""Matrix functions of SPD arguments through rational interpolants.

Arguments come in three flavors (dense symmetric, Toeplitz-like in
generator form, diagonal-by-eigenvalues) wrapped in MatArg together with
spectral bounds [c, d].  On top of the interpolant evaluation sit the
residual certificate, automatic degree selection with the stop-one-before
rule, the scaled Denman-Beavers Newton square root, and inverse scaling
and squaring drivers for the logarithm and fractional powers.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from . import tlalgebra as tl
from .approx import (Geometry, apriori_bound, build_geometry, optimal_nodes,
                     relative_error_bound, stopping_threshold)
from .errors import (BoundInvalid, DegreeUnavailable, DimensionError,
                     DomainError, InvalidInterval, MarktopError, NoConvergence,
                     PoleCollision, SingularMatrix)
from .interp import REPRESENTATIONS, PartialFraction, ThieleCF, fit_interpolant
from .markov import MarkovSpec, log_spec, power_spec, worst_case_spec

_EPS = np.finfo(float).eps
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class MatArg:
    """Matrix argument with spectral bounds c <= lambda_min, lambda_max <= d.

    The data picks the arithmetic ``ops``: a TLMatrix is Toeplitz-like, a
    2-D ndarray a dense symmetric matrix, a 1-D ndarray the eigenvalues of
    a diagonal matrix.
    """

    data: object
    c: float
    d: float

    def __post_init__(self):
        # ops raises DimensionError on any other data
        if self.ops is _DENSE and self.data.shape[0] != self.data.shape[1]:
            raise DimensionError(f"need a square matrix, got shape {self.data.shape}")
        if not (0 < self.c <= self.d):
            raise DimensionError(f"need 0 < c <= d, got [{self.c}, {self.d}]")

    @property
    def ops(self) -> Ops:
        if isinstance(self.data, tl.TLMatrix):
            return _TL
        if isinstance(self.data, np.ndarray) and self.data.ndim in (1, 2):
            return _DIAGONAL if self.data.ndim == 1 else _DENSE
        raise DimensionError("MatArg needs a TLMatrix or a 1-D or 2-D ndarray, got "
                             f"{type(self.data).__name__}{getattr(self.data, 'shape', '')}")

    @property
    def n(self) -> int:
        return self.ops.n(self.data)


def _checked_array(x, ndim: int, what: str) -> np.ndarray:
    """x as a float array, after checking that it is a nonempty ``what``
    with ndim equal dimensions and finite entries."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"need a {what} of numbers, got {type(x).__name__}") from exc
    if x.ndim != ndim or x.size == 0 or x.shape != (len(x),) * ndim:
        raise DimensionError(f"need a nonempty {what}, got shape {x.shape}")
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        raise DomainError(f"{what} entry [{', '.join(map(str, bad[0]))}] is "
                          f"{x[tuple(bad[0])]}, entries must be finite")
    return x


def dense_arg(a, c: float, d: float) -> MatArg:
    """A square matrix; its symmetry is not checked."""
    return MatArg(_checked_array(a, 2, "square matrix"), c, d)

def tl_arg(a: tl.TLMatrix, c: float, d: float) -> MatArg:
    if not isinstance(a, tl.TLMatrix):
        raise DimensionError(f"tl_arg needs a TLMatrix, got {type(a).__name__}")
    return MatArg(a, c, d)

def diag_arg(eigs, c: float | None = None, d: float | None = None) -> MatArg:
    e = _checked_array(eigs, 1, "eigenvalue vector")
    return MatArg(e, float(e.min()) if c is None else c,
                  float(e.max()) if d is None else d)


# ---------------------------------------------------------------------------
# Arithmetic of each argument kind
# ---------------------------------------------------------------------------

class Ops(NamedTuple):
    """The matrix operations the drivers need, on one kind's data.  Norms are
    of operators applied, never formed: exact, or from below by Lanczos for tl."""

    n: Callable         # x -> size
    identity: Callable  # n -> I
    shift: Callable     # (x, z) -> x - z I
    scale: Callable     # (x, alpha) -> alpha x
    add: Callable       # (x, y) -> x + y
    mul: Callable       # (x, y) -> x y
    inv: Callable       # x -> x^{-1}
    apply: Callable     # (x, v) -> x v
    norm: Callable      # (f, n) -> ||f||_2 of a symmetric operator f
    to_dense: Callable  # x -> ndarray


def spectral_norm(x) -> float:
    """sigma_max(X) = sqrt(lambda_max(X^T X)) for any real X, exact to
    rounding: X is scaled by its largest entry, so X^T X neither overflows
    nor underflows.  inf when X has a nonfinite entry."""
    x = np.asarray(x, dtype=float)
    s = float(np.max(np.abs(x)))
    if not math.isfinite(s):
        return math.inf
    if s == 0.0:
        return 0.0
    y = x / s
    n = y.shape[1]
    lam = scipy.linalg.eigh(y.T @ y, eigvals_only=True, check_finite=False,
                            subset_by_index=[n - 1, n - 1], driver="evr")
    return s * math.sqrt(max(float(lam[0]), 0.0))


def _dense_inv(x):
    """x^{-1} by LAPACK getrf and getri, the latter with its optimal
    (blocked) workspace; an exactly zero pivot raises SingularMatrix."""
    lu, piv, info = lapack.dgetrf(x)
    if info == 0:
        lwork = int(lapack.dgetri_lwork(len(x))[0])
        out, info = lapack.dgetri(lu, piv, lwork=lwork, overwrite_lu=True)
    if info != 0:
        raise SingularMatrix(f"dense inverse: LAPACK info = {info}")
    return out


_DENSE = Ops(n=len, identity=np.eye,
             shift=lambda x, z: x - z * np.eye(len(x)),
             scale=lambda x, alpha: alpha * x,
             add=lambda x, y: x + y,
             mul=lambda x, y: x @ y,
             inv=_dense_inv,
             apply=lambda x, v: x @ v,
             norm=lambda f, n: spectral_norm(f(np.eye(n))),
             to_dense=lambda x: x)

# the tl entries look tlalgebra's functions up at call time, so wrappers
# installed on the module after import take effect
_TL = Ops(n=lambda x: x.n,
          identity=lambda n: tl.identity_tl(n),
          shift=lambda x, z: tl.shift(x, z),
          scale=lambda x, alpha: tl.scale(x, alpha),
          add=lambda x, y: tl.add(x, y),
          mul=lambda x, y: tl.multiply(x, y),
          inv=lambda x: tl.invert(x),
          apply=lambda x, v: tl.matvec(x, v),
          norm=lambda f, n: tl.norm_est(f, n),
          to_dense=lambda x: tl.to_dense(x))

_DIAGONAL = Ops(n=len, identity=np.ones,
                shift=lambda x, z: x - z,
                scale=lambda x, alpha: alpha * x,
                add=lambda x, y: x + y,
                mul=lambda x, y: x * y,
                inv=lambda x: 1.0 / x,
                apply=lambda x, v: x * v,
                norm=lambda f, n: float(np.max(np.abs(f(np.ones(n))))),
                to_dense=np.diag)


def mat_to_dense(a: MatArg) -> np.ndarray:
    return a.ops.to_dense(a.data)


# ---------------------------------------------------------------------------
# Interpolant evaluation at a matrix argument
# ---------------------------------------------------------------------------

def _check_poles(r, a: MatArg):
    """Raise PoleCollision if a pole of a partial-fraction r lies in the
    argument's [c, d]."""
    if isinstance(r, PartialFraction):
        tol = 1e-10 * max(a.d - a.c, 1.0)
        for x in r.poles:
            if a.c - tol <= x <= a.d + tol:
                raise PoleCollision(f"pole {x} inside spectral interval [{a.c}, {a.d}]")


def eval_rational_at_matrix(r, a: MatArg) -> MatArg:
    """r(A) in r's own representation: partial fractions sum shifted
    inverses, barycentric forms P(A) Q(A)^{-1}, Thiele inverts its backward
    recurrence.  Diagonal arguments apply r entrywise on the spectrum."""
    _check_poles(r, a)
    if a.ops is _DIAGONAL:
        return replace(a, data=np.asarray(r(a.data), dtype=float))
    ops = a.ops
    if isinstance(r, PartialFraction):
        terms = (ops.scale(ops.inv(ops.shift(a.data, x)), res)
                 for x, res in zip(r.poles, r.residuals))
        return replace(a, data=functools.reduce(ops.add, terms))
    # the shift-built levels below start from two nodes
    if len(r.params if isinstance(r, ThieleCF) else r.support) < 2:
        raise DimensionError("a barycentric or Thiele r(A) needs two or more nodes")
    if isinstance(r, ThieleCF):
        # levels p_j I + (A - t_j I) out^-1 are shifts; the innermost keeps A's tag
        p, zt = r.params, r.nodes
        out = ops.shift(ops.scale(ops.shift(a.data, zt[len(p) - 2]), 1.0 / p[-1]), -p[-2])
        for j in range(len(p) - 3, -1, -1):
            out = ops.shift(ops.mul(ops.shift(a.data, zt[j]), ops.inv(out)), -p[j])
        return replace(a, data=ops.inv(out))
    # barycentric: running sums S_j = S_{j-1} (A - t_j I) + c_j prod_{k<j} (A - t_k I)
    # started at S_1, give sum_j c_j prod_{k != j} (A - t_k I), c_j = f_j w_j and w_j
    t, w, fw = r.support, r.weights, np.multiply(r.values, r.weights)
    lead, s = ops.shift(a.data, t[0]), ops.shift(a.data, t[1])
    num = ops.add(ops.scale(s, fw[0]), ops.scale(lead, fw[1]))
    den = ops.add(ops.scale(s, w[0]), ops.scale(lead, w[1]))
    for j in range(2, len(t)):
        lead, s = ops.mul(lead, s), ops.shift(a.data, t[j])
        num = ops.add(ops.mul(num, s), ops.scale(lead, fw[j]))
        den = ops.add(ops.mul(den, s), ops.scale(lead, w[j]))
    return replace(a, data=ops.mul(num, ops.inv(den)))


def _deviation(a: MatArg, apply) -> float:
    """|| I - X || for the symmetric operator apply: v -> X v."""
    return a.ops.norm(lambda v: v - apply(v), a.n)


def residual_sqrt(a: MatArg, r_nu, g: Geometry) -> float:
    """Spectral-norm residual || I - R W R || of the worst-case interpolant with
    R = r_nu(A) and W = (A - alpha I)(A - beta I)/|alpha|, or A - beta I when
    alpha = -inf, applied factor by factor and never formed.  Its norm is exact
    on dense and diagonal arguments; on tl a Lanczos Ritz value, a lower estimate."""
    ops = a.ops
    r = eval_rational_at_matrix(r_nu, a).data
    shifts = (g.beta,) if math.isinf(g.alpha) else (g.alpha, g.beta)
    scale = 1.0 if math.isinf(g.alpha) else 1.0 / abs(g.alpha)

    def rwr(v):
        v = ops.apply(r, v)
        for z in shifts:
            v = ops.apply(a.data, v) - z * v
        return ops.apply(r, scale * v)

    return _deviation(a, rwr)


def aposteriori_bound(a: MatArg, r_m, r_mp, g: Geometry) -> float:
    """(1+delta)/(1-delta) * || I - r_m(A) r_{m+m'}(A)^{-1} || + delta with
    delta = 4 eta~/(1-eta~)^2 from the enriched node set of r_mp.  The factor
    covers the quotient's distortion by r_mp; the added delta is r_mp's own
    relative error, which the quotient cannot see."""
    nodes_m = tuple(r_m.nodes)
    nodes_mp = tuple(r_mp.nodes)
    if len(nodes_mp) <= len(nodes_m):
        raise BoundInvalid("reference interpolant must use strictly more nodes")
    delta = relative_error_bound(g, nodes_mp)
    if delta >= 1.0:
        raise BoundInvalid(f"delta = {delta:.3g} >= 1")
    em = eval_rational_at_matrix(r_m, a).data
    emp_inv = a.ops.inv(eval_rational_at_matrix(r_mp, a).data)
    return (1.0 + delta) / (1.0 - delta) * _deviation(
        a, lambda v: a.ops.apply(em, a.ops.apply(emp_inv, v))) + delta


# ---------------------------------------------------------------------------
# Degree sweep and automatic degree selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeRecord:
    m: int
    residual: float       # inf when the fit or evaluation degenerates
    threshold: float      # inf when the a priori bound is not yet valid
    apriori: float | None
    accepted: bool
    value: object         # what measure(r_mu) returned, None on failure
    wall_ms: float


def degree_sweep(spec: MarkovSpec, a: MatArg, g: Geometry, rep: str, ms,
                 measure):
    """For each m in the sequence ms fit r_m of spec and of the worst-case
    function at the quasi-optimal nodes, apply measure to r_m and certify
    it with the worst-case residual on a; yield one DegreeRecord per degree.

    The geometry's [c, d] must enclose the argument's own [c, d]: a looser
    one only makes the bounds pessimistic, a tighter one voids them."""
    if rep not in REPRESENTATIONS:
        raise DimensionError(f"unknown representation {rep!r}")
    if not ms or min(ms) < 1:
        raise InvalidInterval(f"degrees must be >= 1, got {ms!r}")
    if not all(isinstance(m, (int, np.integer)) for m in ms):
        raise InvalidInterval(f"degrees must be integers, got {ms!r}")
    if not (g.c <= a.c and a.d <= g.d):
        raise BoundInvalid(f"geometry [c, d] = [{g.c:.6g}, {g.d:.6g}] does not "
                           f"enclose the argument's [{a.c:.6g}, {a.d:.6g}]")
    nu = worst_case_spec(g.alpha, g.beta)
    interval = (g.alpha, g.beta)
    for m in ms:
        t0 = time.perf_counter()
        try:
            thr = stopping_threshold(g, m)
            apr = apriori_bound(g, m)
        except BoundInvalid:
            thr, apr = math.inf, None
        try:
            nodes = optimal_nodes(g, m)
            r_mu = fit_interpolant(spec, nodes, rep, interval=interval)
            r_nu = fit_interpolant(nu, nodes, rep, interval=interval)
            value = measure(r_mu)
            resid = residual_sqrt(a, r_nu, g)
        except MarktopError:
            # fit or evaluation degenerates once the error reaches the
            # rounding floor; the degree is rejected
            resid, value = math.inf, None
        yield DegreeRecord(m, resid, thr, apr, resid < thr, value,
                           (time.perf_counter() - t0) * 1000.0)


@dataclass(frozen=True)
class MatFunResult:
    """approximation holds f(A) with the argument's own [c, d], not bounds
    of the spectrum of f(A)."""

    approximation: MatArg
    m: int
    history: tuple  # rows (m, residual, apriori or None, accepted)
    not_triggered: bool = False
    scaling: tuple | None = None  # (ell, k, gamma_prime) when applicable


def auto_degree(spec: MarkovSpec, a: MatArg, g: Geometry, rep: str = "pfd",
                m_max: int = 20) -> MatFunResult:
    """Increase m while the worst-case residual stays below five times the
    a priori bound; return the last accepted degree (stop one before the
    first violation).  r_mu(A) is evaluated once, at that degree."""

    def fitted(r_mu):
        # a pole in [c, d] still rejects the degree, without any matrix work
        _check_poles(r_mu, a)
        return r_mu

    if not isinstance(m_max, (int, np.integer)):
        raise InvalidInterval(f"degrees must be integers, got m_max = {m_max!r}")
    history, prev = [], None
    for rec in degree_sweep(spec, a, g, rep, range(1, m_max + 1), fitted):
        history.append((rec.m, rec.residual, rec.apriori, rec.accepted))
        if not rec.accepted:
            break
        prev = rec
    if prev is None:
        raise DegreeUnavailable(f"residual {rec.residual:.3g} >= threshold "
                                f"{rec.threshold:.3g} already at m=1")
    return MatFunResult(eval_rational_at_matrix(prev.value, a), prev.m,
                        tuple(history), not_triggered=rec.accepted)


# ---------------------------------------------------------------------------
# Scaled Denman-Beavers Newton square root (product form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtResult:
    x: MatArg
    residuals: tuple[float, ...]  # ||I - M_k|| after each step
    mus: tuple[float, ...]
    phase2_start: int


_MAX_NEWTON = 25


def sqrt_db_newton(b: MatArg, tol: float | None = None) -> SqrtResult:
    """Product-form Denman-Beavers iteration with the optimal scaling
    schedule; mu is frozen at 1 once (1 - mu^4)/mu^4 <= 1e-3.  Returns the
    first root with ||I - M_k|| <= tol; NoConvergence after _MAX_NEWTON steps."""
    c, d = b.c, b.d
    if tol is None:
        tol = 10.0 * b.n * _EPS * (d / c)
    mu = 1.0 / (c * d) ** 0.25
    mu_next = math.sqrt(2.0 * (c * d) ** 0.25 / (math.sqrt(c) + math.sqrt(d)))
    ops = b.ops
    x = b.data
    m = b.data
    phase2_start = -1
    residuals = []
    mus = []
    for k in range(_MAX_NEWTON):
        # mu may start above 1 when cd < 1; the switch tests closeness to 1
        if phase2_start < 0 and abs(1.0 - mu ** 4) / mu ** 4 <= 1e-3:
            phase2_start = k
            mu = 1.0
        mus.append(mu)
        # M <- I/2 + (mu^2 M + M^-1/mu^2)/4, X <- (I + M^-1/mu^2) mu X/2
        minv = ops.inv(m)
        m = ops.shift(ops.add(ops.scale(m, mu * mu / 4.0),
                              ops.scale(minv, 1.0 / (4.0 * mu * mu))), -0.5)
        x = ops.mul(ops.shift(ops.scale(minv, 1.0 / (mu * mu)), -1.0),
                    ops.scale(x, mu / 2.0))
        res = _deviation(b, lambda v: ops.apply(m, v))
        residuals.append(res)
        if res <= tol:
            return SqrtResult(replace(b, data=x, c=math.sqrt(c), d=math.sqrt(d)),
                              tuple(residuals), tuple(mus), phase2_start)
        if phase2_start < 0:
            mu = mu_next
            mu_next = math.sqrt(2.0 * mu / (1.0 + mu * mu))
    raise NoConvergence(f"Newton square root: ||I - M|| = {residuals[-1]:.3g} "
                        f"after {_MAX_NEWTON} iterations (tol {tol:.3g})")


# ---------------------------------------------------------------------------
# Inverse scaling and squaring drivers
# ---------------------------------------------------------------------------

def _scaled_root(a: MatArg) -> tuple[int, MatArg]:
    """(ell, A^(1/2^ell)) for the least ell with (d/c)^(1/2^ell) <= 10, by
    ell Denman-Beavers square roots."""
    ell = 0
    while (a.d / a.c) ** (1.0 / 2 ** ell) > 10.0:
        ell += 1
    for _ in range(ell):
        a = sqrt_db_newton(a).x
    return ell, a


def _times_power(ops: Ops, out, x, k: int):
    """out x^k by repeated squaring, O(log |k|) products, with one inverse
    when k < 0; out = None stands for I, formed only for x^0."""
    base, k = (x, k) if k >= 0 else (ops.inv(x), -k)
    while k:
        if k & 1:
            out = base if out is None else ops.mul(out, base)
        k >>= 1
        if k:
            base = ops.mul(base, base)
    return ops.identity(ops.n(x)) if out is None else out


def log_via_scaling(a: MatArg, rep: str = "pfd", m_max: int = 20) -> MatFunResult:
    """log(A) = 2^ell log(A^(1/2^ell)) with the inner log through the
    Markov function log(z)/(z-1): log(B) = (B - I) r_m(B)."""
    ell, a_ell = _scaled_root(a)
    spec = log_spec()
    g = build_geometry(spec.alpha, spec.beta, a_ell.c, a_ell.d)
    inner = auto_degree(spec, a_ell, g, rep, m_max)
    ops = a.ops
    out = ops.scale(ops.mul(ops.shift(a_ell.data, 1.0), inner.approximation.data),
                    float(2 ** ell))
    return replace(inner, approximation=replace(a, data=out), scaling=(ell, 0, None))


def frac_power(a: MatArg, gamma: float, rep: str = "pfd",
               m_max: int = 20) -> MatFunResult:
    """A^gamma by inverse scaling and squaring: write 2^ell gamma = k + g'
    with k integer and g' in [-1, 0), then A^gamma = r(A_ell) A_ell^k where
    r approximates z^g' and A_ell = A^(1/2^ell).  For gamma = 1 with ell = 0
    the result holds the argument's own data object, not a copy."""
    if not math.isfinite(gamma):
        raise InvalidInterval(f"power exponent must be finite, got {gamma}")
    if abs(gamma) * max(abs(math.log(a.c)), abs(math.log(a.d))) > _LOG_MAX:
        raise InvalidInterval(f"power exponent {gamma} takes [{a.c}, {a.d}] "
                              "beyond the float range")
    ops = a.ops
    # A^0 = I takes the integral branch below without a square root
    ell, a_ell = _scaled_root(a) if gamma != 0.0 else (0, a)
    gp_total = 2 ** ell * gamma
    if gp_total == int(gp_total):
        # 2^ell gamma integral: plain integer power, no interpolant needed
        k, gp = int(gp_total), 0.0
        inner, r = MatFunResult(a_ell, 0, ()), None
    else:
        k = math.floor(gp_total) + 1
        gp = gp_total - k
        spec = power_spec(gp)
        g = build_geometry(spec.alpha, spec.beta, a_ell.c, a_ell.d)
        inner = auto_degree(spec, a_ell, g, rep, m_max)
        r = inner.approximation.data
    out = _times_power(ops, r, a_ell.data, k)
    return replace(inner, approximation=replace(a, data=out), scaling=(ell, k, gp))

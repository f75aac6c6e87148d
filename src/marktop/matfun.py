"""Matrix functions of SPD arguments through rational interpolants.

Arguments come in three flavors (dense symmetric, Toeplitz-like in
generator form, diagonal-by-eigenvalues) wrapped in MatArg together with
spectral bounds [c, d].  On top of the interpolant evaluation sit the
worst-case residual (an exact norm on dense and diagonal arguments, a
Lanczos estimate on Toeplitz-like ones), automatic degree selection with
the stop-one-before rule, the scaled Denman-Beavers Newton square root, and
the drivers for the logarithm and fractional powers: inverse scaling and
squaring, whose square roots the pole-sum route and an integral exponent
skip.  A partial-fraction log(A) is always a shifted pole sum.
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

    The data picks the arithmetic ``ops``: for a TLMatrix the tlalgebra module,
    whose functions are looked up at each call, so wrappers installed later
    apply; _DENSE for a 2-D ndarray, _DIAGONAL for a 1-D one (eigenvalues).
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
    def ops(self):
        if isinstance(self.data, tl.TLMatrix):
            return tl
        if isinstance(self.data, np.ndarray) and self.data.ndim in (1, 2):
            return _DIAGONAL if self.data.ndim == 1 else _DENSE
        raise DimensionError("MatArg needs a TLMatrix or a 1-D or 2-D ndarray, got "
                             f"{type(self.data).__name__}{getattr(self.data, 'shape', '')}")

    @property
    def n(self) -> int:
        return len(self.data)


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
    if not all(np.all(np.isfinite(x)) for x in (a.G, a.B, a.toeplitz) if x is not None):
        raise DomainError("tag and generator entries must be finite")
    return MatArg(a, c, d)

def diag_arg(eigs, c: float | None = None, d: float | None = None) -> MatArg:
    e = _checked_array(eigs, 1, "eigenvalue vector")
    return MatArg(e, float(e.min()) if c is None else c,
                  float(e.max()) if d is None else d)


# ---------------------------------------------------------------------------
# Arithmetic of each argument kind
# ---------------------------------------------------------------------------

class Ops(NamedTuple):
    """Dense or diagonal arithmetic under the names of tlalgebra, which serves
    Toeplitz-like data.  deviation: exact here, from below there."""

    shift: Callable      # (x, z) -> x - z I
    scale: Callable      # (x, alpha) -> alpha x
    add: Callable        # (x, y) -> x + y
    multiply: Callable   # (x, y) -> x y
    invert: Callable     # x -> x^{-1}
    deviation: Callable  # [F1, ..., Fk] -> ||I - F1 ... Fk||_2
    to_dense: Callable   # x -> ndarray


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


_DENSE = Ops(shift=lambda x, z: x - z * np.eye(len(x)),
             scale=lambda x, alpha: alpha * x,
             add=lambda x, y: x + y,
             multiply=lambda x, y: x @ y,
             invert=_dense_inv,
             deviation=lambda fs: spectral_norm(
                 np.eye(len(fs[0])) - functools.reduce(np.matmul, fs)),
             to_dense=lambda x: x)

_DIAGONAL = Ops(shift=lambda x, z: x - z,
                scale=lambda x, alpha: alpha * x,
                add=lambda x, y: x + y,
                multiply=lambda x, y: x * y,
                invert=lambda x: 1.0 / x,
                deviation=lambda fs: float(np.max(np.abs(
                    1.0 - functools.reduce(np.multiply, fs)))),
                to_dense=np.diag)


# ---------------------------------------------------------------------------
# Interpolant evaluation at a matrix argument
# ---------------------------------------------------------------------------

def _check_poles(r, a: MatArg):
    """Raise PoleCollision if a pole of a partial-fraction r lies in the
    argument's [c, d], widened by 1e-10 c on both sides."""
    if isinstance(r, PartialFraction):
        tol = 1e-10 * a.c
        for x in r.poles:
            if a.c - tol <= x <= a.d + tol:
                raise PoleCollision(f"pole {x} inside spectral interval [{a.c}, {a.d}]")


def eval_rational_at_matrix(r, a: MatArg):
    """r(A)'s data, of the argument's kind, in r's own representation:
    partial fractions sum shifted inverses, on tagged Toeplitz data all from
    tl.shifted_inverses, barycentric forms P(A) Q(A)^{-1},
    Thiele inverts its backward recurrence.  Diagonal arguments apply r
    entrywise on the spectrum.  On Toeplitz-like data the barycentric running
    sums can lose every digit (log, m = 8, [1, 100], n = 32: error 3.4e2)."""
    _check_poles(r, a)
    if a.ops is _DIAGONAL:
        return np.asarray(r(a.data), dtype=float)
    ops = a.ops
    if isinstance(r, PartialFraction):
        if ops is tl and a.data.toeplitz is not None:
            inverses = tl.shifted_inverses(a.data, r.poles, a.c, a.d)
        else:
            inverses = (ops.invert(ops.shift(a.data, x)) for x in r.poles)
        return functools.reduce(ops.add, map(ops.scale, inverses, r.residuals))
    # the shift-built levels below start from two nodes
    if len(r.params if isinstance(r, ThieleCF) else r.support) < 2:
        raise DimensionError("a barycentric or Thiele r(A) needs two or more nodes")
    if isinstance(r, ThieleCF):
        # levels p_j I + (A - t_j I) out^-1 are shifts; the innermost keeps A's tag
        p, zt = r.params, r.nodes
        out = ops.shift(ops.scale(ops.shift(a.data, zt[len(p) - 2]), 1.0 / p[-1]), -p[-2])
        for j in range(len(p) - 3, -1, -1):
            out = ops.shift(ops.multiply(ops.shift(a.data, zt[j]), ops.invert(out)), -p[j])
        return ops.invert(out)
    # barycentric: running sums S_j = S_{j-1} (A - t_j I) + c_j prod_{k<j} (A - t_k I)
    # started at S_1, give sum_j c_j prod_{k != j} (A - t_k I), c_j = f_j w_j and w_j
    t, w, fw = r.support, r.weights, np.multiply(r.values, r.weights)
    lead, s = ops.shift(a.data, t[0]), ops.shift(a.data, t[1])
    num = ops.add(ops.scale(s, fw[0]), ops.scale(lead, fw[1]))
    den = ops.add(ops.scale(s, w[0]), ops.scale(lead, w[1]))
    for j in range(2, len(t)):
        lead, s = ops.multiply(lead, s), ops.shift(a.data, t[j])
        num = ops.add(ops.multiply(num, s), ops.scale(lead, fw[j]))
        den = ops.add(ops.multiply(den, s), ops.scale(lead, w[j]))
    return ops.multiply(num, ops.invert(den))


def residual_sqrt(a: MatArg, r_nu, g: Geometry) -> float:
    """Spectral-norm residual || I - R W R || of the worst-case interpolant with
    R = r_nu(A) and W = prod (A - e I) over the finite endpoints e of [alpha, beta],
    the deviation of the factors R, A - e I, ..., R.  Exact on dense and diagonal
    arguments; on tl, which never forms their product, a lower estimate."""
    r = eval_rational_at_matrix(r_nu, a)
    weight = [a.ops.shift(a.data, e) for e in (g.alpha, g.beta) if math.isfinite(e)]
    return a.ops.deviation([r, *weight, r])


def aposteriori_bound(a: MatArg, r_m, r_mp, g: Geometry) -> float:
    """(1+delta)/(1-delta) * || I - r_m(A) r_{m+m'}(A)^{-1} || + delta with
    delta = 4 eta~/(1-eta~)^2 from the enriched node set of r_mp, the norm
    the deviation of the two factors.  The factor covers the quotient's
    distortion by r_mp; the added delta is r_mp's own relative error."""
    if len(r_mp.nodes) <= len(r_m.nodes):
        raise BoundInvalid("reference interpolant must use strictly more nodes")
    delta = relative_error_bound(g, r_mp.nodes)
    if delta >= 1.0:
        raise BoundInvalid(f"delta = {delta:.3g} >= 1")
    em, emp = (eval_rational_at_matrix(r, a) for r in (r_m, r_mp))
    return (1.0 + delta) / (1.0 - delta) * a.ops.deviation([em, a.ops.invert(emp)]) + delta


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
    function at the quasi-optimal nodes, apply measure to r_m and test
    it with the worst-case residual on a; yield one DegreeRecord per degree.
    A partial-fraction r_m with a pole in a's [c, d] rejects its degree
    before measure or the residual runs.

    The geometry's [c, d] and [alpha, beta] must enclose a's [c, d] and the
    spec's support: looser ones make the bounds pessimistic, tighter void them."""
    if rep not in REPRESENTATIONS:
        raise DimensionError(f"unknown representation {rep!r}")
    if not ms or min(ms) < 1:
        raise InvalidInterval(f"degrees must be >= 1, got {ms!r}")
    if not all(isinstance(m, (int, np.integer)) for m in ms):
        raise InvalidInterval(f"degrees must be integers, got {ms!r}")
    if not (g.c <= a.c and a.d <= g.d):
        raise BoundInvalid(f"geometry [c, d] = [{g.c:.6g}, {g.d:.6g}] does not "
                           f"enclose the argument's [{a.c:.6g}, {a.d:.6g}]")
    if not (g.alpha <= spec.alpha and spec.beta <= g.beta):
        raise BoundInvalid(f"geometry [alpha, beta] = [{g.alpha:.6g}, {g.beta:.6g}] "
                           f"does not contain the support [{spec.alpha:.6g}, {spec.beta:.6g}]")
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
            _check_poles(r_mu, a)
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
    of the spectrum of f(A).  scaling is set by the two drivers: (ell, k,
    gamma') for A^gamma = r(A_ell) A_ell^k, (ell, 0, None) for the logarithm,
    with ell = 0 on the _pole_sum_route and for an integral gamma."""

    approximation: MatArg
    m: int
    history: tuple  # rows (m, residual, apriori or None, accepted)
    not_triggered: bool = False
    scaling: tuple | None = None


def _check_m_max(m_max):
    """Raise InvalidInterval unless m_max is an integer >= 1."""
    if not isinstance(m_max, (int, np.integer)) or m_max < 1:
        raise InvalidInterval(f"degrees must be >= 1 and integers, got m_max = {m_max!r}")


def _start_degree(g: Geometry, rep: str, n: int, m_max: int) -> int:
    """The largest m <= m_max whose a priori bound is at least 1e3 n eps, or
    is not yet valid; 1 if there is none, and always 1 for a representation
    other than pfd, which stalls far above that floor on matrix arguments."""
    _check_m_max(m_max)
    m0 = 1
    if rep == "pfd":
        for m in range(2, m_max + 1):
            try:
                if apriori_bound(g, m) < 1e3 * n * _EPS:
                    break
            except BoundInvalid:
                pass
            m0 = m
    return m0


class _Fit(NamedTuple):
    r: object           # the accepted r_mu, not yet evaluated at A
    m: int
    history: tuple
    not_triggered: bool


def _accepted_fit(spec: MarkovSpec, a: MatArg, g: Geometry, rep: str,
                  m_max: int) -> _Fit:
    """auto_degree's degree selection, without evaluating r_mu(A)."""
    # a rejected start restarts one degree lower: the largest accepted m below it
    for start in range(_start_degree(g, rep, a.n, m_max), 0, -1):
        history, prev = [], None
        for rec in degree_sweep(spec, a, g, rep, range(start, m_max + 1), lambda r: r):
            history.append((rec.m, rec.residual, rec.apriori, rec.accepted))
            if not rec.accepted:
                break
            prev = rec
        if prev is not None:
            break
    if prev is None:
        raise DegreeUnavailable(f"residual {rec.residual:.3g} >= threshold "
                                f"{rec.threshold:.3g} already at m=1")
    return _Fit(prev.value, prev.m, tuple(history), rec.accepted)


def auto_degree(spec: MarkovSpec, a: MatArg, g: Geometry, rep: str = "pfd",
                m_max: int = 20) -> MatFunResult:
    """Increase m while the worst-case residual stays below five times the
    a priori bound; return the last accepted degree (stop one before the
    first violation).  r_mu(A) is evaluated once, at that degree; the
    sweep's pole check rejects a degree without it.

    pfd starts at the _start_degree m0, since its sharp a priori bound lets
    only degrees near the rounding floor fail; a rejected start restarts one
    degree lower, so a rejected m0 gives the largest accepted degree below it.
    The history holds the degrees tried by the last sweep."""
    fit = _accepted_fit(spec, a, g, rep, m_max)
    return MatFunResult(replace(a, data=eval_rational_at_matrix(fit.r, a)),
                        fit.m, fit.history, fit.not_triggered)


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
    schedule; mu is frozen at 1 once (1 - mu^4)/mu^4 <= 1e-3.  Returns the first
    root whose deviation ||I - M_k|| is <= tol; NoConvergence after _MAX_NEWTON steps."""
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
        minv = ops.invert(m)
        m = ops.shift(ops.add(ops.scale(m, mu * mu / 4.0),
                              ops.scale(minv, 1.0 / (4.0 * mu * mu))), -0.5)
        x = ops.multiply(ops.shift(ops.scale(minv, 1.0 / (mu * mu)), -1.0),
                         ops.scale(x, mu / 2.0))
        res = ops.deviation([m])
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


def _pole_sum_route(spec: MarkovSpec, a: MatArg, rep: str, m_max: int) -> bool:
    """Whether a driver keeps ell = 0, which is all the route decides:
    A is a tagged Toeplitz argument, whose square root would be untagged and
    densify every later inverse, r is a partial fraction, and its fit on
    A's own [c, d] forms at auto_degree's start degree.  On a wide [c, d]
    the Loewner pencil turns singular below that degree, the sweep stops
    early and ell = 0 loses to square roots (log, n = 256, [1, 1e8]:
    2.3e-5 against 2.9e-7)."""
    if rep != "pfd" or not isinstance(a.data, tl.TLMatrix) or a.data.toeplitz is None:
        return False
    g = build_geometry(spec.alpha, spec.beta, a.c, a.d)
    try:
        nodes = optimal_nodes(g, _start_degree(g, rep, a.n, m_max))
        _check_poles(fit_interpolant(spec, nodes, rep, interval=(g.alpha, g.beta)), a)
    except MarktopError:
        return False
    return True


def _times_shift(r, a: MatArg, s: float):
    """(A - sI) r(A).  For r = sum a_j/(z - x_j) this is the pole sum from
    (z - s) r(z) = sum a_j + sum a_j (x_j - s)/(z - x_j): m shifted inverses
    and one shift, no matrix product; any other r takes the product."""
    if not isinstance(r, PartialFraction):
        return a.ops.multiply(a.ops.shift(a.data, s), eval_rational_at_matrix(r, a))
    q = replace(r, residuals=tuple(np.multiply(r.residuals, np.subtract(r.poles, s))))
    return a.ops.shift(eval_rational_at_matrix(q, a), -math.fsum(r.residuals))


def _times_power(ops, out, x, k: int):
    """out x^k by repeated squaring, O(log |k|) products, with one inverse
    when k < 0; out = None stands for I, formed only for x^0 and as
    shift(scale(x, 0), -1): exactly I on every kind, and tagged if x is."""
    base, k = (x, k) if k >= 0 else (ops.invert(x), -k)
    while k:
        if k & 1:
            out = base if out is None else ops.multiply(out, base)
        k >>= 1
        if k:
            base = ops.multiply(base, base)
    return ops.shift(ops.scale(x, 0.0), -1.0) if out is None else out


def log_via_scaling(a: MatArg, rep: str = "pfd", m_max: int = 20) -> MatFunResult:
    """log(A) = 2^ell log(A^(1/2^ell)) with the inner log through the
    Markov function log(z)/(z-1): log(B) = (B - I) r_m(B), a pole sum when
    r is a partial fraction.  ell = 0 on the _pole_sum_route."""
    _check_m_max(m_max)
    spec = log_spec()
    ell, a_ell = (0, a) if _pole_sum_route(spec, a, rep, m_max) else _scaled_root(a)
    g = build_geometry(spec.alpha, spec.beta, a_ell.c, a_ell.d)
    fit = _accepted_fit(spec, a_ell, g, rep, m_max)
    out = a.ops.scale(_times_shift(fit.r, a_ell, 1.0), 2.0 ** ell)
    return MatFunResult(replace(a, data=out), fit.m, fit.history, fit.not_triggered,
                        scaling=(ell, 0, None))


def frac_power(a: MatArg, gamma: float, rep: str = "pfd",
               m_max: int = 20) -> MatFunResult:
    """A^gamma by inverse scaling and squaring: write 2^ell gamma = k + g'
    with k integer and g' in [-1, 0), then A^gamma = r(A_ell) A_ell^k where
    r approximates z^g' and A_ell = A^(1/2^ell).  For |gamma| < 1 on the
    _pole_sum_route, ell = 0: k = 0 returns the pole sum r(A) itself, and
    k = 1 the shifted pole sum A r(A) with s = 0, no product.  Off the
    route k = 1 keeps the product, since for g' near 0 the pole sum's
    constant sum a_j is large and cancels.  Any integral gamma takes ell = 0,
    and an integral 2^ell gamma returns A_ell^k before any fit, with m = 0;
    gamma = 1 returns the argument's own data object."""
    _check_m_max(m_max)
    if not math.isfinite(gamma):
        raise InvalidInterval(f"power exponent must be finite, got {gamma}")
    if abs(gamma) * max(abs(math.log(a.c)), abs(math.log(a.d))) > _LOG_MAX:
        raise InvalidInterval(f"power exponent {gamma} takes [{a.c}, {a.d}] "
                              "beyond the float range")
    # at ell = 0, gamma in (0, 1) has k = 1 and gamma in (-1, 0) k = 0
    pole_sum = (0.0 < abs(gamma) < 1.0
                and _pole_sum_route(power_spec(gamma - (gamma > 0)), a, rep, m_max))
    ell, a_ell = (0, a) if pole_sum or gamma == int(gamma) else _scaled_root(a)
    k = math.ceil(2 ** ell * gamma)
    gp = 2 ** ell * gamma - k
    if gp == 0.0:
        return MatFunResult(replace(a, data=_times_power(a.ops, None, a_ell.data, k)),
                            0, (), scaling=(ell, k, gp))
    spec = power_spec(gp)
    g = build_geometry(spec.alpha, spec.beta, a_ell.c, a_ell.d)
    fit = _accepted_fit(spec, a_ell, g, rep, m_max)
    if pole_sum and k == 1:
        out = _times_shift(fit.r, a_ell, 0.0)
    else:
        out = _times_power(a.ops, eval_rational_at_matrix(fit.r, a_ell), a_ell.data, k)
    return MatFunResult(replace(a, data=out), fit.m, fit.history, fit.not_triggered,
                        scaling=(ell, k, gp))

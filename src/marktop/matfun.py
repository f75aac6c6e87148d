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
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import tlalgebra as tl
from .approx import (Geometry, apriori_bound, blaschke_eta, build_geometry,
                     optimal_nodes, stopping_threshold)
from .errors import (BoundInvalid, DegreeUnavailable, DimensionError,
                     MarktopError, NoConvergence, PoleCollision)
from .interp import PartialFraction, RationalInterpolant, ThieleCF, fit_interpolant
from .markov import MarkovSpec, log_spec, power_spec, worst_case_spec

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class MatArg:
    """Matrix argument with spectral bounds c <= lambda_min, lambda_max <= d.

    kind is "dense" (symmetric ndarray), "tl" (TLMatrix) or "diagonal"
    (1-D array of eigenvalues); ``ops`` holds that kind's arithmetic.
    """

    kind: str
    data: object
    c: float
    d: float

    def __post_init__(self):
        if self.kind not in _OPS:
            raise DimensionError(f"unknown MatArg kind {self.kind!r}")
        if not (0 < self.c <= self.d):
            raise DimensionError(f"need 0 < c <= d, got [{self.c}, {self.d}]")

    @property
    def ops(self) -> Ops:
        return _OPS[self.kind]

    @property
    def n(self) -> int:
        return self.ops.n(self.data)


def dense_arg(a, c: float, d: float) -> MatArg:
    return MatArg("dense", np.asarray(a, dtype=float), c, d)

def tl_arg(a: tl.TLMatrix, c: float, d: float) -> MatArg:
    return MatArg("tl", a, c, d)

def diag_arg(eigs, c: float | None = None, d: float | None = None) -> MatArg:
    e = np.asarray(eigs, dtype=float)
    return MatArg("diagonal", e, float(e.min()) if c is None else c,
                  float(e.max()) if d is None else d)


# ---------------------------------------------------------------------------
# Arithmetic of each argument kind
# ---------------------------------------------------------------------------

class Ops(NamedTuple):
    """The matrix operations the drivers need, on one kind's data."""

    n: Callable         # x -> size
    identity: Callable  # n -> I
    shift: Callable     # (x, z) -> x - z I
    scale: Callable     # (x, alpha) -> alpha x
    add: Callable       # (x, y) -> x + y
    mul: Callable       # (x, y) -> x y
    inv: Callable       # x -> x^{-1}
    norm: Callable      # x -> ||x||_2 (an estimate for tl)
    to_dense: Callable  # x -> ndarray


# the tl entries look tlalgebra's functions up at call time, so wrappers
# installed on the module after import take effect
_OPS = {
    "dense": Ops(n=len, identity=np.eye,
                 shift=lambda x, z: x - z * np.eye(len(x)),
                 scale=lambda x, alpha: alpha * x,
                 add=lambda x, y: x + y,
                 mul=lambda x, y: x @ y,
                 inv=np.linalg.inv,
                 norm=lambda x: float(np.linalg.norm(x, 2)),
                 to_dense=lambda x: x),
    "tl": Ops(n=lambda x: x.n,
              identity=lambda n: tl.identity_tl(n),
              shift=lambda x, z: tl.shift(x, z),
              scale=lambda x, alpha: tl.scale(x, alpha),
              add=lambda x, y: tl.compress(tl.add(x, y)),
              mul=lambda x, y: tl.multiply(x, y),
              inv=lambda x: tl.invert(x),
              norm=lambda x: tl.norm_est(x),
              to_dense=lambda x: tl.to_dense(x)),
    "diagonal": Ops(n=len, identity=np.ones,
                    shift=lambda x, z: x - z,
                    scale=lambda x, alpha: alpha * x,
                    add=lambda x, y: x + y,
                    mul=lambda x, y: x * y,
                    inv=lambda x: 1.0 / x,
                    norm=lambda x: float(np.max(np.abs(x))),
                    to_dense=np.diag),
}


def mat_to_dense(a: MatArg) -> np.ndarray:
    return a.ops.to_dense(a.data)


# ---------------------------------------------------------------------------
# Interpolant evaluation at a matrix argument
# ---------------------------------------------------------------------------

def eval_rational_at_matrix(r, a: MatArg) -> MatArg:
    """r(A) in the representation native to r: partial fractions sum shifted
    inverses, barycentric forms P(A) Q(A)^{-1}, Thiele runs its backward
    recurrence.  Diagonal arguments apply r entrywise on the spectrum."""
    rep = r.rep if isinstance(r, RationalInterpolant) else r
    if isinstance(rep, PartialFraction):
        tol = 1e-10 * max(a.d - a.c, 1.0)
        for x in rep.poles:
            if a.c - tol <= x <= a.d + tol:
                raise PoleCollision(f"pole {x} inside spectral interval [{a.c}, {a.d}]")
    if a.kind == "diagonal":
        return replace(a, data=np.asarray(rep(a.data), dtype=float))
    ops = a.ops
    if isinstance(rep, PartialFraction):
        terms = (ops.scale(ops.inv(ops.shift(a.data, x)), res)
                 for x, res in zip(rep.poles, rep.residuals))
        return replace(a, data=functools.reduce(ops.add, terms))
    ident = ops.identity(a.n)
    if isinstance(rep, ThieleCF):
        p, zt = rep.params, rep.nodes
        out = ops.scale(ident, p[-1])
        for j in range(len(p) - 2, -1, -1):
            out = ops.add(ops.scale(ident, p[j]),
                          ops.mul(ops.shift(a.data, zt[j]), ops.inv(out)))
        if rep.reciprocal:
            out = ops.inv(out)
        return replace(a, data=out)
    # barycentric: accumulate prod_{k != j} (A - t_k I) via prefix/suffix
    t = rep.support
    mlen = len(t)
    prefix = [ident]
    for k in range(mlen - 1):
        prefix.append(ops.mul(prefix[-1], ops.shift(a.data, t[k])))
    suffix = [ident]
    for k in range(mlen - 1, 0, -1):
        suffix.append(ops.mul(ops.shift(a.data, t[k]), suffix[-1]))
    suffix.reverse()
    num = den = None
    for j in range(mlen):
        pj = ops.mul(prefix[j], suffix[j])
        nj = ops.scale(pj, rep.values[j] * rep.weights[j])
        dj = ops.scale(pj, rep.weights[j])
        num = nj if num is None else ops.add(num, nj)
        den = dj if den is None else ops.add(den, dj)
    return replace(a, data=ops.mul(num, ops.inv(den)))


def _deviation(a: MatArg, x) -> float:
    """|| I - x ||."""
    ops = a.ops
    return ops.norm(ops.add(ops.identity(a.n), ops.scale(x, -1.0)))


def residual_sqrt(a: MatArg, r_nu, g: Geometry) -> float:
    """Spectral-norm residual of the worst-case interpolant:
    || I - r_nu(A) (1/|alpha|)(A - alpha I)(A - beta I) r_nu(A) ||,
    with the limit || I - r_nu(A)^2 (A - beta I) || when alpha = -inf."""
    alpha, beta = g.alpha, g.beta
    if a.kind == "diagonal":
        lam = a.data
        rv = np.asarray(r_nu(lam), dtype=float)
        if math.isinf(alpha):
            resid = 1.0 - rv * rv * (lam - beta)
        else:
            resid = 1.0 - rv * (lam - alpha) * (lam - beta) * rv / abs(alpha)
        return float(np.max(np.abs(resid)))
    ops = a.ops
    e = eval_rational_at_matrix(r_nu, a)
    if math.isinf(alpha):
        w = ops.shift(a.data, beta)
    else:
        w = ops.scale(ops.mul(ops.shift(a.data, alpha), ops.shift(a.data, beta)),
                      1.0 / abs(alpha))
    return _deviation(a, ops.mul(e.data, ops.mul(w, e.data)))


_ETA_APOST_MAX = (math.sqrt(2.0) - 1.0) ** 2


def aposteriori_bound(a: MatArg, r_m, r_mp, g: Geometry) -> float:
    """(1+delta)/(1-delta) * || I - r_m(A) r_{m+m'}(A)^{-1} || with
    delta = 4 eta~/(1-eta~)^2 from the enriched node set of r_mp."""
    nodes_m = tuple(r_m.nodes)
    nodes_mp = tuple(r_mp.nodes)
    if len(nodes_mp) <= len(nodes_m):
        raise BoundInvalid("reference interpolant must use strictly more nodes")
    eta = blaschke_eta(g, nodes_mp)
    if eta > _ETA_APOST_MAX:
        raise BoundInvalid(f"eta = {eta:.3g} > (sqrt(2)-1)^2, bound not applicable")
    delta = 4.0 * eta / (1.0 - eta) ** 2
    if delta >= 1.0:
        raise BoundInvalid(f"delta = {delta:.3g} >= 1")
    em = eval_rational_at_matrix(r_m, a)
    emp = eval_rational_at_matrix(r_mp, a)
    quot = a.ops.mul(em.data, a.ops.inv(emp.data))
    return (1.0 + delta) / (1.0 - delta) * _deviation(a, quot)


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
    """For each m in ms fit r_m of spec and of the worst-case function at
    the quasi-optimal nodes, apply measure to r_m and certify it with the
    worst-case residual on a; yield one DegreeRecord per degree."""
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
    approximation: MatArg
    m: int
    history: tuple  # rows (m, residual, apriori or None, accepted)
    representation: str
    not_triggered: bool = False
    scaling: tuple | None = None  # (ell, k, gamma_prime) when applicable


def auto_degree(spec: MarkovSpec, a: MatArg, g: Geometry, rep: str = "pfd",
                m_max: int = 20) -> MatFunResult:
    """Increase m while the worst-case residual stays below five times the
    a priori bound; return the last accepted degree (stop one before the
    first violation)."""
    history = []
    prev = None
    for rec in degree_sweep(spec, a, g, rep, range(1, m_max + 1),
                            lambda r: eval_rational_at_matrix(r, a)):
        history.append((rec.m, rec.residual, rec.apriori, rec.accepted))
        if not rec.accepted:
            if prev is None:
                raise DegreeUnavailable(f"residual {rec.residual:.3g} >= threshold "
                                        f"{rec.threshold:.3g} already at m=1")
            return MatFunResult(prev.value, prev.m, tuple(history), rep)
        prev = rec
    return MatFunResult(prev.value, prev.m, tuple(history), rep, not_triggered=True)


# ---------------------------------------------------------------------------
# Scaled Denman-Beavers Newton square root (product form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtResult:
    x: MatArg
    residuals: tuple[float, ...]  # ||I - M_k|| after each step
    mus: tuple[float, ...]
    phase2_start: int
    final_residual: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "final_residual",
                           self.residuals[-1] if self.residuals else math.inf)


_MAX_NEWTON = 25
_PHASE2_BUDGET = 5


def sqrt_db_newton(b: MatArg, tol: float | None = None) -> SqrtResult:
    """Product-form Denman-Beavers iteration with the optimal scaling
    schedule; mu is frozen at 1 once (1 - mu^4)/mu^4 <= 1e-3."""
    c, d = b.c, b.d
    if tol is None:
        tol = 10.0 * b.n * _EPS * (d / c)
    mu = 1.0 / (c * d) ** 0.25
    mu_next = math.sqrt(2.0 * (c * d) ** 0.25 / (math.sqrt(c) + math.sqrt(d)))
    ops = b.ops
    ident = ops.identity(b.n)
    x = b.data
    m = b.data
    phase = 1
    phase2_start = -1
    phase2_steps = 0
    residuals = []
    mus = []
    for k in range(_MAX_NEWTON):
        # mu may start above 1 when cd < 1; the switch tests closeness to 1
        if phase == 1 and abs(1.0 - mu ** 4) / mu ** 4 <= 1e-3:
            phase = 2
            phase2_start = k
            mu = 1.0
        mus.append(mu)
        minv = ops.inv(m)
        m = ops.add(ops.scale(ident, 0.5),
                    ops.add(ops.scale(m, mu * mu / 4.0),
                            ops.scale(minv, 1.0 / (4.0 * mu * mu))))
        x = ops.mul(ops.add(ident, ops.scale(minv, 1.0 / (mu * mu))),
                    ops.scale(x, mu / 2.0))
        res = _deviation(b, m)
        residuals.append(res)
        if phase == 2:
            phase2_steps += 1
        if res <= tol or (phase == 2 and phase2_steps >= _PHASE2_BUDGET):
            return SqrtResult(replace(b, data=x, c=math.sqrt(c), d=math.sqrt(d)),
                              tuple(residuals), tuple(mus), phase2_start)
        if phase == 1:
            mu = mu_next
            mu_next = math.sqrt(2.0 * mu / (1.0 + mu * mu))
    raise NoConvergence(f"Newton square root: ||I - M|| = {residuals[-1]:.3g} "
                        f"after {_MAX_NEWTON} iterations (tol {tol:.3g})")


# ---------------------------------------------------------------------------
# Inverse scaling and squaring drivers
# ---------------------------------------------------------------------------

def _choice_ell(c: float, d: float) -> int:
    ell = 0
    while (d / c) ** (1.0 / 2 ** ell) > 10.0:
        ell += 1
    return ell


def _contract(a: MatArg, ell: int) -> MatArg:
    out = a
    for _ in range(ell):
        out = sqrt_db_newton(out).x
    return out


def _times_power(ops: Ops, out, x, k: int):
    """out x^k by repeated products, with one inverse when k < 0."""
    base = x if k >= 0 else ops.inv(x)
    for _ in range(abs(k)):
        out = ops.mul(out, base)
    return out


def log_via_scaling(a: MatArg, rep: str = "pfd", m_max: int = 20) -> MatFunResult:
    """log(A) = 2^ell log(A^(1/2^ell)) with the inner log through the
    Markov function log(z)/(z-1): log(B) = (B - I) r_m(B)."""
    ell = _choice_ell(a.c, a.d)
    a_ell = _contract(a, ell)
    spec = log_spec()
    g = build_geometry(spec.alpha, spec.beta, a_ell.c, a_ell.d)
    inner = auto_degree(spec, a_ell, g, rep, m_max)
    ops = a.ops
    out = ops.scale(ops.mul(ops.shift(a_ell.data, 1.0), inner.approximation.data),
                    float(2 ** ell))
    approx = replace(inner.approximation, data=out)
    return MatFunResult(approx, inner.m, inner.history, rep,
                        inner.not_triggered, scaling=(ell, 0, None))


def frac_power(a: MatArg, gamma: float, rep: str = "pfd",
               m_max: int = 20) -> MatFunResult:
    """A^gamma by inverse scaling and squaring: write 2^ell gamma = k + g'
    with k integer and g' in [-1, 0), then A^gamma = r(A_ell) A_ell^k where
    r approximates z^g' and A_ell = A^(1/2^ell)."""
    ops = a.ops
    if gamma == 0.0:
        ident = replace(a, data=ops.identity(a.n), c=1.0, d=1.0)
        return MatFunResult(ident, 0, (), rep, scaling=(0, 0, 0.0))
    ell = _choice_ell(a.c, a.d)
    gp_total = 2 ** ell * gamma
    a_ell = _contract(a, ell)
    lo = min(a.c ** gamma, a.d ** gamma)
    hi = max(a.c ** gamma, a.d ** gamma)
    if gp_total == int(gp_total):
        # 2^ell gamma integral: plain integer power, no interpolant needed
        k = int(gp_total)
        out = _times_power(ops, ops.identity(a.n), a_ell.data, k)
        return MatFunResult(replace(a, data=out, c=lo, d=hi), 0, (), rep,
                            scaling=(ell, k, 0.0))
    k = math.floor(gp_total) + 1
    gp = gp_total - k
    spec = power_spec(gp)
    g = build_geometry(spec.alpha, spec.beta, a_ell.c, a_ell.d)
    inner = auto_degree(spec, a_ell, g, rep, m_max)
    out = _times_power(ops, inner.approximation.data, a_ell.data, k)
    approx = replace(a, data=out, c=lo, d=hi)
    return MatFunResult(approx, inner.m, inner.history, rep,
                        inner.not_triggered, scaling=(ell, k, gp))

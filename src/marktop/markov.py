"""Catalog of Markov functions and the Hankel moment-definiteness check.

A Markov function is the Cauchy transform of a positive measure supported
on a real interval [alpha, beta] (alpha may be -inf).  Each constructor
supplies its function's evaluator and Taylor series; arbitrary user
evaluators are accepted through ``custom_spec``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, InvalidInterval


@dataclass(frozen=True, eq=False)
class MarkovSpec:
    """A Markov function: support interval, evaluator and Taylor series.

    ``alpha`` may be ``-inf``; ``beta`` is always finite and the function
    is analytic, positive and strictly decreasing on (beta, +inf).  ``f``
    evaluates a float array of points z > beta; ``series(z0, count)``
    returns the first ``count`` Taylor coefficients about z0 > beta.
    """

    alpha: float
    beta: float
    f: Callable[[np.ndarray], np.ndarray]
    series: Callable[[float, int], np.ndarray]

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise InvalidInterval(f"need alpha < beta, got [{self.alpha}, {self.beta}]")
        if not math.isfinite(self.beta):
            raise InvalidInterval("beta must be finite")

    def __call__(self, z):
        return eval_markov(self, z)


def inv_sqrt_spec() -> MarkovSpec:
    return MarkovSpec(-math.inf, 0.0, lambda z: 1.0 / np.sqrt(z),
                      functools.partial(_power_series, -0.5))


def log_spec() -> MarkovSpec:
    return MarkovSpec(-math.inf, 0.0, _log_over_zm1, _log_over_zm1_series)


def power_spec(gamma: float) -> MarkovSpec:
    """z**gamma for gamma in [-1, 0)."""
    if not -1.0 <= gamma < 0.0:
        raise InvalidInterval(f"power exponent must lie in [-1, 0), got {gamma}")
    return MarkovSpec(-math.inf, 0.0, lambda z: z ** gamma,
                      functools.partial(_power_series, gamma))


def custom_spec(evaluator: Callable[[float], float], alpha: float, beta: float) -> MarkovSpec:
    """Spec of a user evaluator: called on the whole array first, and entry
    by entry if that fails or returns the wrong shape."""
    def f(z):
        try:
            out = np.asarray(evaluator(z), dtype=float)
            if out.shape == z.shape:
                return out
        except Exception:
            pass
        return np.asarray([evaluator(float(t)) for t in z.ravel()]).reshape(z.shape)

    return MarkovSpec(alpha, beta, f, functools.partial(_custom_series, evaluator, beta))


def worst_case_spec(alpha: float, beta: float) -> MarkovSpec:
    """Spec of the worst-case Markov function for the interval [alpha, beta].

    f(z) = sqrt(|alpha|) / sqrt((z - alpha)(z - beta)) for finite alpha,
    with the limit 1/sqrt(z - beta) as alpha -> -inf.  (z - shift)**(-1/2)
    about z0 is z**(-1/2) about z0 - shift.
    """
    if math.isinf(alpha):
        return MarkovSpec(alpha, beta, lambda z: 1.0 / np.sqrt(z - beta),
                          lambda z0, count: _power_series(-0.5, z0 - beta, count))
    scale = math.sqrt(abs(alpha))

    def series(z0, count):
        u = _power_series(-0.5, z0 - alpha, count)
        v = _power_series(-0.5, z0 - beta, count)
        return scale * np.convolve(u, v)[:count]

    return MarkovSpec(alpha, beta, lambda z: scale / np.sqrt((z - alpha) * (z - beta)),
                      series)


def _log_over_zm1(z):
    w = np.asarray(z, dtype=float) - 1.0
    small = np.abs(w) < 1e-6
    out = np.empty_like(w)
    # series of log(1+w)/w around w = 0; three terms suffice at 1e-6
    ws = np.where(small, w, 0.0)
    out[small] = (1.0 - ws / 2.0 + ws * ws / 3.0)[small]
    wb = np.where(small, 1.0, w)
    out[~small] = (np.log1p(wb) / wb)[~small]
    return out


def eval_markov(spec: MarkovSpec, z):
    """Evaluate a Markov function at real z > beta.

    Accepts scalars or arrays; raises DomainError if any argument lies
    in (-inf, beta].
    """
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= spec.beta):
        raise DomainError(f"evaluation requires z > beta = {spec.beta}")
    out = spec.f(arr)
    if np.ndim(z) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Taylor coefficients (for the Hankel moment matrices of the definiteness check)
# ---------------------------------------------------------------------------

def _power_series(exponent: float, z0: float, count: int) -> np.ndarray:
    """Coefficients of z -> z**exponent about z0 > 0 (binomial recurrence)."""
    g = np.empty(count)
    g[0] = z0 ** exponent
    for j in range(count - 1):
        g[j + 1] = g[j] * (exponent - j) / ((j + 1) * z0)
    return g


def _log_over_zm1_series(z0: float, count: int) -> np.ndarray:
    if abs(z0 - 1.0) < 0.9:
        # expand log(1+w)/w = sum c_j w^j (w = z-1), then re-center at z0
        h = z0 - 1.0
        g = np.zeros(count)
        term_count = count
        j = 0
        while True:
            c = (-1.0) ** j / (j + 1.0)
            # contribution of c * w^j to coefficient i about z0: c * C(j, i) h^(j-i)
            if j >= term_count and abs(c * h ** (j - count + 1)) < 1e-20:
                break
            for i in range(min(j, count - 1) + 1):
                g[i] += c * math.comb(j, i) * h ** (j - i)
            j += 1
            if j > 400:
                break
        return g
    # product of the series of log(z) and 1/(z-1) about z0
    lg = np.empty(count)
    lg[0] = math.log(z0)
    for j in range(1, count):
        lg[j] = (-1.0) ** (j + 1) / (j * z0 ** j)
    inv = np.array([(-1.0) ** j / (z0 - 1.0) ** (j + 1) for j in range(count)])
    return np.convolve(lg, inv)[:count]


def _custom_series(evaluator, beta: float, z0: float, count: int) -> np.ndarray:
    """Numerical Taylor coefficients of a user evaluator about z0.

    Primary route: Cauchy coefficients over a circle of radius r via FFT,
    if the evaluator accepts complex arguments.  Fallback: Chebyshev fit
    on [z0 - r, z0 + r] with repeated differentiation.
    """
    r = 0.45 * (z0 - beta)
    npts = max(64, 4 * count)
    theta = 2.0 * np.pi * np.arange(npts) / npts
    try:
        vals = np.asarray([evaluator(complex(z0 + r * np.exp(1j * t))) for t in theta],
                          dtype=complex)
        coeffs = np.fft.fft(vals) / npts
        g = (coeffs[:count] / r ** np.arange(count)).real
        if np.all(np.isfinite(g)):
            return g
    except Exception:
        pass
    xs = z0 + r * np.cos(np.pi * (2 * np.arange(npts) + 1) / (2 * npts))
    ys = np.asarray([evaluator(float(x)) for x in xs])
    cheb = np.polynomial.chebyshev.Chebyshev.fit(xs, ys, deg=min(50, npts - 1))
    g = np.empty(count)
    for j in range(count):
        g[j] = cheb(z0) / math.factorial(j)
        cheb = cheb.deriv()
    return g


def taylor_coeffs(spec: MarkovSpec, z0: float, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of the spec's function about z0 > beta."""
    if z0 <= spec.beta:
        raise DomainError(f"expansion point must satisfy z0 > beta = {spec.beta}")
    return spec.series(z0, count)


def hankel_matrix(spec: MarkovSpec, z0: float, n: int, ell: int) -> np.ndarray:
    """Hankel matrix of size n+1 with entries g_{i+j+ell} of the Taylor
    coefficients of the spec's function about z0."""
    if n < 0 or ell < 0:
        raise DimensionError(f"n and ell must be nonnegative, got n = {n}, ell = {ell}")
    g = taylor_coeffs(spec, z0, 2 * n + ell + 1)
    idx = np.add.outer(np.arange(n + 1), np.arange(n + 1)) + ell
    return g[idx]


@dataclass(frozen=True)
class HankelReport:
    passed: bool
    min_eig_pos: tuple[float, ...]  # smallest eigenvalue of H_n^{(0)}, per n
    max_eig_neg: tuple[float, ...]  # largest eigenvalue of H_n^{(1)}, per n


# definiteness at desk scale must tolerate coefficient noise
_TOL_DEF_REL = 1e-10


def _scaled_min_eig(h: np.ndarray, sign: float) -> float:
    """Smallest eigenvalue of D (sign*h) D relative to its spectral radius,
    where D equilibrates the diagonal to ones.

    Definiteness is invariant under the congruence, and the scaling removes
    the geometric decay of the Taylor coefficients so the sign of the
    smallest eigenvalue is resolvable in double precision.  A nonpositive
    diagonal entry already disproves definiteness.
    """
    dvals = sign * np.diag(h)
    if np.any(dvals <= 0.0):
        return -np.inf
    d = 1.0 / np.sqrt(dvals)
    hs = sign * (d[:, None] * h * d[None, :])
    e = np.linalg.eigvalsh(hs)
    radius = np.max(np.abs(e))
    if radius == 0.0:
        return 0.0
    return float(e[0] / radius)


def check_hankel_definiteness(spec: MarkovSpec, z0: float, n_max: int) -> HankelReport:
    """Moment test: H_n^{(0)} positive (semi)definite and H_n^{(1)} negative
    (semi)definite for all n <= n_max, up to a relative tolerance.

    The Hankel matrices of a Markov function are exponentially
    ill-conditioned, so their smallest eigenvalues underflow any fixed
    positive threshold already at moderate n.  The test therefore rejects
    only matrices with a significantly wrong-signed eigenvalue of the
    diagonally equilibrated matrix, which keeps genuine non-Markov data
    (for instance f(z) = z, with an O(1) indefinite block) failing while
    tolerating rounding-level singularity.
    """
    mins, maxs = [], []
    ok = True
    for n in range(n_max + 1):
        h0 = hankel_matrix(spec, z0, n, 0)
        h1 = hankel_matrix(spec, z0, n, 1)
        e0 = np.linalg.eigvalsh(h0)
        e1 = np.linalg.eigvalsh(h1)
        mins.append(float(e0[0]))
        maxs.append(float(e1[-1]))
        if _scaled_min_eig(h0, 1.0) <= -_TOL_DEF_REL:
            ok = False
        if _scaled_min_eig(h1, -1.0) <= -_TOL_DEF_REL:
            ok = False
    return HankelReport(ok, tuple(mins), tuple(maxs))

"""Catalog of Markov functions and the Hankel moment-definiteness check.

A Markov function is the Cauchy transform of a positive measure supported
on a real interval [alpha, beta] (alpha may be -inf).  Each constructor
supplies its function's evaluator, the one definition of the function;
its Taylor coefficients come from the evaluator through Cauchy's integral.
Arbitrary user evaluators are accepted through ``custom_spec``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.exceptions import ComplexWarning

from .errors import DimensionError, DomainError, InvalidInterval


@dataclass(frozen=True, eq=False)
class MarkovSpec:
    """A Markov function: support interval and evaluator.

    ``alpha`` may be ``-inf``; ``beta`` is always finite and the function
    is analytic, positive and strictly decreasing on (beta, +inf).  ``f``
    evaluates an array of points: real z > beta, and, for the Hankel
    check's Taylor coefficients, complex z with Re z > beta.
    """

    alpha: float
    beta: float
    f: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise InvalidInterval(f"need alpha < beta, got [{self.alpha}, {self.beta}]")
        if not math.isfinite(self.beta):
            raise InvalidInterval("beta must be finite")

    def __call__(self, z):
        return eval_markov(self, z)


def inv_sqrt_spec() -> MarkovSpec:
    return MarkovSpec(-math.inf, 0.0, lambda z: 1.0 / np.sqrt(z))


def log_spec() -> MarkovSpec:
    return MarkovSpec(-math.inf, 0.0, _log_over_zm1)


def power_spec(gamma: float) -> MarkovSpec:
    """z**gamma for gamma in [-1, 0)."""
    if not -1.0 <= gamma < 0.0:
        raise InvalidInterval(f"power exponent must lie in [-1, 0), got {gamma}")
    return MarkovSpec(-math.inf, 0.0, lambda z: z ** gamma)


def custom_spec(evaluator: Callable[[float], float], alpha: float, beta: float) -> MarkovSpec:
    """Spec of a user evaluator: called on the whole array first, and entry
    by entry if that fails or returns the wrong shape."""
    def f(z):
        try:
            out = np.asarray(evaluator(z))
            if out.shape == z.shape:
                return out
        except Exception:
            pass
        return np.asarray([evaluator(t) for t in z.ravel()]).reshape(z.shape)

    return MarkovSpec(alpha, beta, f)


def worst_case_spec(alpha: float, beta: float) -> MarkovSpec:
    """Spec of the worst-case Markov function for the interval [alpha, beta]:
    f(z) = 1/sqrt(prod (z - e)) over its finite endpoints e, that is
    1/sqrt((z - alpha)(z - beta)), or 1/sqrt(z - beta) for alpha = -inf."""
    ends = [e for e in (alpha, beta) if math.isfinite(e)]
    return MarkovSpec(alpha, beta, lambda z: 1.0 / np.sqrt(math.prod(z - e for e in ends)))


def _log_over_zm1(z):
    w = np.asarray(z) - 1.0
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
    in (-inf, beta], or if f returns a nonfinite value or a nonreal one.
    """
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= spec.beta):
        raise DomainError(f"evaluation requires z > beta = {spec.beta}")
    out = spec.f(arr)
    # a complex evaluator (cmath, say) is fine where it is real
    if np.iscomplexobj(out):
        if np.any(np.imag(out) != 0.0):
            raise DomainError(f"f must be real on (beta, inf) = ({spec.beta}, inf)")
        out = np.real(out)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"f must be finite on (beta, inf) = ({spec.beta}, inf)")
    if np.ndim(z) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Taylor coefficients (for the Hankel moment matrices of the definiteness check)
# ---------------------------------------------------------------------------

def taylor_coeffs(spec: MarkovSpec, z0: float, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of the spec's function about z0 > beta.

    Cauchy's integral by the trapezoidal rule (one FFT) on the circle
    |z - z0| = r = 0.8 (z0 - beta), inside the disk where f is analytic.
    The rule's aliasing error decays like 0.8**npts; a radius close to
    the disk's keeps the relative rounding error of coefficient j near
    eps * 1.25**j (Bornemann, Found. Comput. Math. 11, 2011).
    ``spec.f`` must accept complex arrays: an evaluator that raises on
    them or casts them to real makes this raise DomainError.
    """
    if z0 <= spec.beta:
        raise DomainError(f"expansion point must satisfy z0 > beta = {spec.beta}")
    r = 0.8 * (z0 - spec.beta)
    npts = max(512, 4 * count)
    z = z0 + r * np.exp(2j * np.pi * np.arange(npts) / npts)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        try:
            vals = np.asarray(spec.f(z))
        except (TypeError, ValueError, ComplexWarning) as exc:
            raise DomainError(f"Taylor coefficients need f at complex z: {exc}") from exc
    if not np.iscomplexobj(vals):
        raise DomainError("Taylor coefficients need f at complex z, "
                          "f returned real values")
    if not np.all(np.isfinite(vals)):
        raise DomainError("Taylor coefficients need f finite on the circle "
                          f"|z - {z0}| = {r:.6g}, f has a nonfinite value there")
    return (np.fft.fft(vals)[:count] / npts / r ** np.arange(count)).real


def hankel_matrix(spec: MarkovSpec, z0: float, n: int, ell: int) -> np.ndarray:
    """Hankel matrix of size n+1 with entries g_{i+j+ell} of the Taylor
    coefficients of the spec's function about z0."""
    return _hankels(spec, z0, n, ell)[0]


def _hankels(spec: MarkovSpec, z0: float, n: int, *ells: int) -> list[np.ndarray]:
    """hankel_matrix for each ell, indexed from one Taylor coefficient vector."""
    if n < 0 or min(ells) < 0:
        raise DimensionError(f"n and ell must be nonnegative, got n = {n}, ell = {min(ells)}")
    g = taylor_coeffs(spec, z0, 2 * n + max(ells) + 1)
    idx = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    return [g[idx + ell] for ell in ells]


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
    # hs has a unit diagonal, so its spectral radius is at least 1
    return float(e[0] / np.max(np.abs(e)))


def check_hankel_definiteness(spec: MarkovSpec, z0: float, n_max: int) -> bool:
    """Moment test: H_n^{(0)} positive (semi)definite and H_n^{(1)} negative
    (semi)definite for all n <= n_max, up to a relative tolerance.  Only
    n = n_max is tested: each smaller H_n is a leading principal submatrix
    of H_{n_max}, also after equilibration, so its definiteness follows.
    Both matrices come from one Taylor expansion, one evaluation of f.

    The Hankel matrices of a Markov function are exponentially
    ill-conditioned, so their smallest eigenvalues underflow any fixed
    positive threshold already at moderate n.  The test therefore rejects
    only matrices with a significantly wrong-signed eigenvalue of the
    diagonally equilibrated matrix, which keeps genuine non-Markov data
    (for instance f(z) = z, with an O(1) indefinite block) failing while
    tolerating rounding-level singularity.
    """
    h0, h1 = _hankels(spec, z0, n_max, 0, 1)
    return (_scaled_min_eig(h0, 1.0) > -_TOL_DEF_REL
            and _scaled_min_eig(h1, -1.0) > -_TOL_DEF_REL)

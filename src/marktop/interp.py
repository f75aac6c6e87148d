"""Rational interpolants of type [m-1|m] (and [m|m]) in three representations:
Loewner partial fractions, barycentric, and Thiele continued fractions.

All constructors take ``samples``: a sequence of (z_j, f(z_j)) pairs with
distinct real nodes ordered increasingly (beta < c <= z_1 < ... <= d).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .approx import NodeSet
from .errors import (Breakdown, InvalidInterval, PencilError, PoleHit,
                     PoleLocationError, RankDeficiency)

TOL_INTERP = 1e-10
TOL_IMAG = 1e-8
TINY = 1e-300
MAX_PFD_DEGREE = 64


@dataclass(frozen=True)
class PartialFraction:
    """r(z) = sum a_j / (z - x_j) with simple real poles."""

    poles: tuple[float, ...]
    residuals: tuple[float, ...]
    cauchy_cond: float = field(default=float("nan"), compare=False)

    def __call__(self, z):
        arr = np.asarray(z, dtype=float)
        x = np.asarray(self.poles)
        diff = arr[..., None] - x
        if np.any(np.abs(diff) < TINY):
            raise PoleHit("evaluation point coincides with a pole")
        out = (np.asarray(self.residuals) / diff).sum(axis=-1)
        return float(out) if np.ndim(z) == 0 else out


class BaryKind(enum.Enum):
    MM = "[m|m]"
    M1M = "[m-1|m]"


@dataclass(frozen=True)
class Barycentric:
    """r(z) = sum f(t_j) w_j/(z-t_j) / sum w_j/(z-t_j)."""

    support: tuple[float, ...]
    weights: tuple[float, ...]
    values: tuple[float, ...]
    kind: BaryKind

    def __call__(self, z):
        arr = np.atleast_1d(np.asarray(z, dtype=float))
        t = np.asarray(self.support)
        w = np.asarray(self.weights)
        fv = np.asarray(self.values)
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = arr[..., None] - t
            cauchy = w / diff
            out = (cauchy * fv).sum(axis=-1) / cauchy.sum(axis=-1)
        # on-support evaluation is exact by the interpolation property
        hit = np.isclose(arr[..., None], t, rtol=0.0, atol=0.0)
        if hit.any():
            idx = np.argwhere(hit)
            for row in idx:
                out[tuple(row[:-1])] = fv[row[-1]]
        return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


@dataclass(frozen=True)
class ThieleCF:
    """Interpolating continued fraction p_1 + (z-t_1)/(p_2 + (z-t_2)/(...)).

    When ``reciprocal`` is set, the fraction was fitted to 1/f and the
    evaluation returns the reciprocal of the convergent, giving a
    type-[m-1|m] interpolant of f for an even number of nodes.
    """

    nodes: tuple[float, ...]       # after pivoting permutation
    params: tuple[float, ...]
    reciprocal: bool
    positive: bool
    table: tuple[tuple[float, ...], ...] | None = field(default=None, compare=False)

    def __call__(self, z):
        arr = np.atleast_1d(np.asarray(z, dtype=float))
        p = self.params
        zt = self.nodes
        r = np.full(arr.shape, p[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(len(p) - 2, -1, -1):
                r = p[j] + (arr - zt[j]) / r
            if self.reciprocal:
                r = 1.0 / r
        return float(r[0]) if np.ndim(z) == 0 else r.reshape(np.shape(z))


@dataclass(frozen=True)
class RationalInterpolant:
    """One of the three representations together with its node set."""

    rep: PartialFraction | Barycentric | ThieleCF
    nodes: tuple[float, ...]

    def __call__(self, z):
        return self.rep(z)


def _split_samples(samples):
    zs = np.asarray([s[0] for s in samples], dtype=float)
    fs = np.asarray([s[1] for s in samples], dtype=float)
    if len(zs) != len(set(zs.tolist())):
        raise InvalidInterval("interpolation nodes must be distinct")
    order = np.argsort(zs)
    return zs[order], fs[order]


def loewner_pfd(samples, m: int, interval: tuple[float, float] | None = None) -> PartialFraction:
    """Partial fraction decomposition via the Loewner matrix pencil.

    Poles are the generalized eigenvalues of (L_s, L) built from the
    odd/even split of the 2m ordered samples; residuals solve the
    2m x m Cauchy least-squares system.  ``interval`` = (alpha, beta), if
    given, triggers a warning for poles escaping it.
    """
    if m > MAX_PFD_DEGREE:
        raise InvalidInterval(f"m must be <= {MAX_PFD_DEGREE}")
    zs, fs = _split_samples(samples)
    if len(zs) != 2 * m:
        raise InvalidInterval(f"need 2m = {2 * m} samples, got {len(zs)}")
    z_odd, f_odd = zs[0::2], fs[0::2]   # columns
    z_even, f_even = zs[1::2], fs[1::2]  # rows
    dz = z_even[:, None] - z_odd[None, :]
    loew = (f_even[:, None] - f_odd[None, :]) / dz
    loew_s = (z_even[:, None] * f_even[:, None] - z_odd[None, :] * f_odd[None, :]) / dz
    try:
        eig = scipy.linalg.eig(loew_s, loew, right=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise PencilError(str(exc)) from exc
    if not np.all(np.isfinite(eig)):
        raise PencilError("Loewner pencil is numerically singular")
    scale = np.max(np.abs(eig))
    if np.any(np.abs(eig.imag) > TOL_IMAG * scale):
        raise PoleLocationError(f"complex poles beyond cleanup tolerance: {eig}")
    poles = np.sort(eig.real)
    if interval is not None:
        alpha, beta = interval
        tol_pole = 1e-8 * ((beta - alpha) if np.isfinite(alpha) else abs(beta) + 1.0)
        if np.any(poles < alpha - tol_pole) or np.any(poles > beta + tol_pole):
            warnings.warn(f"poles escape ({alpha}, {beta}): {poles}", stacklevel=2)
    cauchy = 1.0 / (zs[:, None] - poles[None, :])
    # column equilibration keeps the accepted-degree fits accurate on badly
    # conditioned intervals (c near 0); the solution is unscaled afterwards
    colscale = np.linalg.norm(cauchy, axis=0)
    colscale[colscale == 0.0] = 1.0
    res, *_ = np.linalg.lstsq(cauchy / colscale, fs, rcond=None)
    res /= colscale
    cond = float(np.linalg.cond(cauchy / colscale))
    if np.any(res <= 0.0):
        warnings.warn(f"nonpositive residuals (expected for Markov data): {res}",
                      stacklevel=2)
    return PartialFraction(tuple(poles.tolist()), tuple(res.tolist()), cond)


def barycentric_fit(samples, m: int, kind: BaryKind = BaryKind.M1M) -> Barycentric:
    """Barycentric interpolant with weights from the nullspace of the
    (bordered) Loewner system, support interlacing the remaining nodes."""
    zs, fs = _split_samples(samples)
    if kind is BaryKind.MM:
        if len(zs) != 2 * m + 1:
            raise InvalidInterval(f"kind [m|m] needs 2m+1 = {2 * m + 1} samples")
        t, ft = zs[0::2], fs[0::2]
        z_int, f_int = zs[1::2], fs[1::2]
        rows = (f_int[:, None] - ft[None, :]) / (z_int[:, None] - t[None, :])
    else:
        if len(zs) != 2 * m:
            raise InvalidInterval(f"kind [m-1|m] needs 2m = {2 * m} samples")
        sup_idx = np.concatenate([[0], np.arange(1, 2 * m, 2)])
        int_idx = np.arange(2, 2 * m - 1, 2)
        t, ft = zs[sup_idx], fs[sup_idx]
        z_int, f_int = zs[int_idx], fs[int_idx]
        loew = (f_int[:, None] - ft[None, :]) / (z_int[:, None] - t[None, :])
        # extra equation sum f(t_j) w_j = 0 pins the numerator degree to m-1
        rows = np.vstack([loew, ft[None, :]])
    _, sv, vt = np.linalg.svd(rows)
    if sv.size and sv[0] > 0.0:
        if sv.size >= 2 and sv[-2] > 0.0 and (sv[-2] - sv[-1]) <= 1e-12 * sv[-2]:
            raise RankDeficiency("nullspace of the interpolation system is not unique")
        w = vt[-1]
    else:
        w = np.ones(len(t))  # zero system (constant data): any weights work
    return Barycentric(tuple(t.tolist()), tuple(w.tolist()), tuple(ft.tolist()), kind)


def thiele_fit(samples, reciprocal: bool = True, keep_table: bool = False) -> ThieleCF:
    """Thiele continued fraction by reciprocal differences with the
    partial-pivoting reordering of the modified Thacher-Tukey algorithm."""
    zs, fs = _split_samples(samples)
    if reciprocal:
        if np.any(fs == 0.0):
            raise Breakdown("reciprocal fit requires nonzero sample values")
        vals = 1.0 / fs
    else:
        vals = fs.copy()
    z_work = zs.copy()
    big_m = len(zs)
    params = np.empty(big_m)
    table = [tuple(vals.tolist())] if keep_table else None
    for j in range(big_m):
        piv = j + int(np.argmin(np.abs(vals[j:])))
        z_work[[j, piv]] = z_work[[piv, j]]
        vals[[j, piv]] = vals[[piv, j]]
        params[j] = vals[j]
        if j < big_m - 1:
            denom = vals[j + 1:] - vals[j]
            if np.any(np.abs(denom) < TINY):
                raise Breakdown(f"reciprocal difference breakdown at stage {j + 2}")
            vals[j + 1:] = (z_work[j + 1:] - z_work[j]) / denom
            if keep_table:
                table.append(tuple(vals[j + 1:].tolist()))
    positive = bool(np.all(params > 0.0))
    return ThieleCF(tuple(z_work.tolist()), tuple(params.tolist()), reciprocal,
                    positive, tuple(table) if keep_table else None)


def fit_interpolant(f, nodes, representation: str = "pfd",
                    interval: tuple[float, float] | None = None) -> RationalInterpolant:
    """Fit a type-[m-1|m] interpolant of the callable ``f`` on 2m nodes in
    the requested representation ("pfd" | "barycentric" | "thiele")."""
    node_tuple = tuple(nodes.nodes if isinstance(nodes, NodeSet) else nodes)
    samples = [(z, float(f(z))) for z in node_tuple]
    m = len(node_tuple) // 2
    if representation == "pfd":
        rep = loewner_pfd(samples, m, interval=interval)
    elif representation == "barycentric":
        rep = barycentric_fit(samples, m, BaryKind.M1M)
    elif representation == "thiele":
        rep = thiele_fit(samples, reciprocal=True)
    else:
        raise ValueError(f"unknown representation {representation!r}")
    r = RationalInterpolant(rep, node_tuple)
    resid = max(abs(1.0 - r(z) / fz) for z, fz in samples if fz != 0.0)
    if resid > TOL_INTERP:
        warnings.warn(f"interpolation residual {resid:.2e} above {TOL_INTERP:.0e} "
                      f"({representation}, m={m})", stacklevel=2)
    return r


def interp_error_scan(f, r, grid):
    """Max relative deviation |1 - r(z)/f(z)| of an interpolant over a grid.

    ``f`` is a MarkovSpec or any callable; returns (max_rel_err, argmax).
    """
    grid = np.asarray(grid, dtype=float)
    fz = np.asarray(f(grid), dtype=float)
    rz = np.asarray(r(grid), dtype=float)
    err = np.abs(1.0 - rz / fz)
    i = int(np.argmax(err))
    return float(err[i]), float(grid[i])

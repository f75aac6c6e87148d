"""Rational interpolants of type [m-1|m] in three representations: Loewner
partial fractions, barycentric, and Thiele continued fractions.

All constructors take ``samples``, (z_j, f(z_j)) pairs at distinct real
nodes in [c, d]; the Loewner and barycentric fits read m from their count 2m.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (Breakdown, DimensionError, InvalidInterval, PencilError,
                     PoleHit, PoleLocationError, RankDeficiency)

REPRESENTATIONS = ("pfd", "barycentric", "thiele")
TOL_INTERP = 1e-10
TOL_IMAG = 1e-8
TINY = 1e-300
MAX_PFD_DEGREE = 64


@dataclass(frozen=True)
class PartialFraction:
    """r(z) = sum a_j / (z - x_j) with simple real poles."""

    poles: tuple[float, ...]
    residuals: tuple[float, ...]
    nodes: tuple[float, ...] = ()   # the interpolation nodes, ascending

    def __call__(self, z):
        arr = np.asarray(z, dtype=float)
        x = np.asarray(self.poles)
        diff = arr[..., None] - x
        if np.any(np.abs(diff) < TINY):
            raise PoleHit("evaluation point coincides with a pole")
        out = (np.asarray(self.residuals) / diff).sum(axis=-1)
        return float(out) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class Barycentric:
    """r(z) = sum f(t_j) w_j/(z-t_j) / sum w_j/(z-t_j)."""

    support: tuple[float, ...]
    weights: tuple[float, ...]
    values: tuple[float, ...]
    nodes: tuple[float, ...] = ()   # the interpolation nodes, ascending

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
        hit = np.nonzero(arr[..., None] == t)
        out[hit[:-1]] = fv[hit[-1]]
        return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


@dataclass(frozen=True)
class ThieleCF:
    """Reciprocal of the interpolating continued fraction
    p_1 + (z-t_1)/(p_2 + (z-t_2)/(...)) fitted to 1/f: a type-[m-1|m]
    interpolant of f for an even number of nodes."""

    nodes: tuple[float, ...]       # after pivoting permutation
    params: tuple[float, ...]
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
            r = 1.0 / r
        return float(r[0]) if np.ndim(z) == 0 else r.reshape(np.shape(z))


def _split_samples(samples):
    zs = np.asarray([s[0] for s in samples], dtype=float)
    fs = np.asarray([s[1] for s in samples], dtype=float)
    if len(zs) != len(set(zs.tolist())):
        raise InvalidInterval("interpolation nodes must be distinct")
    order = np.argsort(zs)
    return zs[order], fs[order]


def loewner_pfd(samples, interval: tuple[float, float] | None = None) -> PartialFraction:
    """Partial fraction decomposition via the Loewner matrix pencil.

    Poles are the generalized eigenvalues of (L_s, L) built from the
    odd/even split of the 2m ordered samples; residuals solve the
    2m x m Cauchy least-squares system.  ``interval`` = (alpha, beta), if
    given, triggers a warning for poles escaping it.
    """
    zs, fs = _split_samples(samples)
    if len(zs) % 2 or not len(zs):
        raise InvalidInterval(f"need 2m >= 2 samples, got {len(zs)}")
    if len(zs) > 2 * MAX_PFD_DEGREE:
        raise InvalidInterval(f"m must be <= {MAX_PFD_DEGREE}")
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
    if np.any(res <= 0.0):
        warnings.warn(f"nonpositive residuals (expected for Markov data): {res}",
                      stacklevel=2)
    return PartialFraction(tuple(poles.tolist()), tuple(res.tolist()),
                           tuple(zs.tolist()))


def barycentric_fit(samples) -> Barycentric:
    """Type-[m-1|m] barycentric interpolant of 2m samples with weights from
    the nullspace of the bordered Loewner system, support interlacing the
    remaining nodes.  All-zero data gives some nullspace vector: r = 0."""
    zs, fs = _split_samples(samples)
    if len(zs) % 2 or not len(zs):
        raise InvalidInterval(f"need 2m >= 2 samples, got {len(zs)}")
    m = len(zs) // 2
    sup_idx = np.concatenate([[0], np.arange(1, 2 * m, 2)])
    int_idx = np.arange(2, 2 * m - 1, 2)
    t, ft = zs[sup_idx], fs[sup_idx]
    z_int, f_int = zs[int_idx], fs[int_idx]
    loew = (f_int[:, None] - ft[None, :]) / (z_int[:, None] - t[None, :])
    # extra equation sum f(t_j) w_j = 0 pins the numerator degree to m-1
    rows = np.vstack([loew, ft[None, :]])
    _, sv, vt = np.linalg.svd(rows)
    if sv.size >= 2 and sv[-2] > 0.0 and (sv[-2] - sv[-1]) <= 1e-12 * sv[-2]:
        raise RankDeficiency("nullspace of the interpolation system is not unique")
    w = vt[-1]
    return Barycentric(tuple(t.tolist()), tuple(w.tolist()), tuple(ft.tolist()),
                       tuple(zs.tolist()))


def thiele_fit(samples, keep_table: bool = False) -> ThieleCF:
    """Thiele continued fraction of 1/f by reciprocal differences with the
    partial-pivoting reordering of the modified Thacher-Tukey algorithm."""
    zs, fs = _split_samples(samples)
    if np.any(fs == 0.0):
        raise Breakdown("a Thiele fit of 1/f requires nonzero sample values")
    vals = 1.0 / fs
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
    return ThieleCF(tuple(z_work.tolist()), tuple(params.tolist()), positive,
                    tuple(table) if keep_table else None)


def fit_interpolant(f, nodes, representation: str = "pfd",
                    interval: tuple[float, float] | None = None
                    ) -> PartialFraction | Barycentric | ThieleCF:
    """Fit a type-[m-1|m] interpolant of the callable ``f`` on 2m nodes in
    the requested representation ("pfd" | "barycentric" | "thiele"), with
    f called once on the array of nodes.  The fit records its nodes."""
    if representation not in REPRESENTATIONS:
        raise DimensionError(f"unknown representation {representation!r}")
    zs = np.asarray(nodes, dtype=float)
    fs = np.asarray(f(zs), dtype=float)
    samples = np.column_stack([zs, fs])
    if representation == "pfd":
        r = loewner_pfd(samples, interval=interval)
    elif representation == "barycentric":
        r = barycentric_fit(samples)
    else:
        r = thiele_fit(samples)
    nonzero = fs != 0.0
    # fmax skips NaN entries
    resid = np.fmax.reduce(np.abs(1.0 - r(zs[nonzero]) / fs[nonzero]))
    if resid > TOL_INTERP:
        warnings.warn(f"interpolation residual {resid:.2e} above {TOL_INTERP:.0e} "
                      f"({representation}, m={len(zs) // 2})", stacklevel=2)
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

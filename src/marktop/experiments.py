"""Experiment drivers: matrix generation, dense oracles, per-degree error
scans over the four evaluation cases, CSV emission.

The four cases compare implementations of the same approximation:
(i) Toeplitz-like arithmetic with tight spectral bounds, (ii) the same
with the bounds loosened to [c/2, 2d], (iii) dense arithmetic with tight
bounds, (iv) a diagonal surrogate with cosine points in [c, d].
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg

from . import matfun as mf
from . import tlalgebra as tl
from .approx import build_geometry
from .errors import DimensionError
from .interp import interp_error_scan
from .markov import MarkovSpec

ORACLE_MAX_N = 1024
SCAN_GRID_SIZE = 500


def gen_random_spd_toeplitz(n: int, lmin: float, lmax: float,
                            seed: int) -> tl.TLMatrix:
    """Seeded random symmetric Toeplitz with its spectrum affinely shifted
    so the extreme eigenvalues land on [lmin, lmax]."""
    if n < 2 or not 0 < lmin < lmax:
        raise DimensionError(f"need n >= 2 and 0 < lmin < lmax, got n = {n}, "
                             f"[{lmin}, {lmax}]")
    rng = np.random.default_rng(seed)
    col = rng.uniform(-1.0, 1.0, n)
    ev = np.linalg.eigvalsh(scipy.linalg.toeplitz(col))
    a = (lmax - lmin) / (ev[-1] - ev[0])
    b = lmin - a * ev[0]
    out = a * col
    out[0] += b
    return tl.from_toeplitz(out)


def laplacian1d(n: int) -> tl.TLMatrix:
    """Tridiagonal 1D Laplacian: 2 on the diagonal, -1 off it."""
    if n < 2:
        raise DimensionError(f"need n >= 2, got n = {n}")
    col = np.zeros(n)
    col[0] = 2.0
    col[1] = -1.0
    return tl.from_toeplitz(col)


def cosine_points(n: int, c: float, d: float) -> np.ndarray:
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    return np.sort((c + d) / 2.0 + (d - c) / 2.0 * np.cos(theta))


def dense_f_oracle(spec: MarkovSpec, a: np.ndarray) -> np.ndarray:
    """f(A) for symmetric A through a dense eigendecomposition."""
    if a.shape[0] > ORACLE_MAX_N:
        raise DimensionError(f"oracle capped at n = {ORACLE_MAX_N}")
    w, v = np.linalg.eigh(a)
    return (v * np.asarray(spec(w))) @ v.T


@dataclass(frozen=True)
class ExperimentRow:
    case: str
    rep: str
    m: int
    rel_err: float
    apriori: float
    residual: float
    accepted: bool
    tau: int
    wall_ms: float

    def as_list(self):
        return [self.case, self.rep, self.m, f"{self.rel_err:.6e}",
                f"{self.apriori:.6e}", f"{self.residual:.6e}",
                str(self.accepted).lower(), self.tau, f"{self.wall_ms:.3f}"]


CSV_HEADER = [f.name for f in fields(ExperimentRow)]


def _row(case: str, rep: str, rec: mf.DegreeRecord) -> ExperimentRow:
    """CSV row of a sweep record whose measured value is (rel_err, tau)."""
    rel_err, tau = (math.nan, 0) if rec.value is None else rec.value
    apr = math.nan if rec.apriori is None else rec.apriori
    return ExperimentRow(case, rep, rec.m, rel_err, apr, rec.residual,
                         rec.accepted, tau, rec.wall_ms)


def run_experiment(spec: MarkovSpec, source: tl.TLMatrix, case: str,
                   reps=("pfd", "barycentric", "thiele"), m_max: int = 20,
                   with_oracle: bool = True) -> list[ExperimentRow]:
    """One row per (rep, m), m = 1..m_max, of the degree sweep on the case's
    argument built from source, a tagged (exact symmetric Toeplitz) matrix.
    rel_err is against the eigh oracle, NaN without it or above ORACLE_MAX_N."""
    if case not in ("i", "ii", "iii", "iv"):
        raise DimensionError(f"unknown case {case!r}")
    if getattr(source, "toeplitz", None) is None:
        raise DimensionError("the source must be an exact symmetric Toeplitz "
                             "matrix, tagged with its first column")
    dense = scipy.linalg.toeplitz(source.toeplitz)
    ev = np.linalg.eigvalsh(dense)
    c, d = float(ev[0]), float(ev[-1])
    if case == "ii":
        c, d = c / 2.0, 2.0 * d
    if case == "iv":
        eigs = cosine_points(source.n, c, d)
        arg, dense = mf.diag_arg(eigs), np.diag(eigs)
    else:
        arg = mf.dense_arg(dense, c, d) if case == "iii" else mf.tl_arg(source, c, d)
    oracle = None
    if with_oracle and dense.shape[0] <= ORACLE_MAX_N:
        oracle = dense_f_oracle(spec, dense)
        oracle_norm = mf.spectral_norm(oracle)

    def measure(r):
        """(relative error against the oracle, generator width) of r(A)."""
        approx = mf.eval_rational_at_matrix(r, arg)
        rel_err = math.nan
        if oracle is not None:
            rel_err = mf.spectral_norm(arg.ops.to_dense(approx) - oracle) / oracle_norm
        return rel_err, approx.width if isinstance(approx, tl.TLMatrix) else 0

    g = build_geometry(spec.alpha, spec.beta, arg.c, arg.d)
    return [_row(case, rep, rec) for rep in reps
            for rec in mf.degree_sweep(spec, arg, g, rep, range(1, m_max + 1), measure)]


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_list())


def scalar_scan(spec: MarkovSpec, c: float, d: float, m_range,
                reps) -> list[ExperimentRow]:
    """Scalar relative errors over cosine points, one row per (rep, m)."""
    grid = cosine_points(SCAN_GRID_SIZE, c, d)
    g = build_geometry(spec.alpha, spec.beta, c, d)
    arg = mf.diag_arg(grid, c, d)

    def measure(r):
        return interp_error_scan(spec, r, grid)[0], 0

    return [_row("scalar", rep, rec)
            for rep in reps
            for rec in mf.degree_sweep(spec, arg, g, rep, m_range, measure)]

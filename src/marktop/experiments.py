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
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matfun as mf
from . import tlalgebra as tl
from .approx import build_geometry
from .errors import DimensionError
from .markov import MarkovSpec

CSV_HEADER = ["case", "rep", "m", "rel_err", "apriori", "residual",
              "accepted", "tau", "wall_ms"]
ORACLE_MAX_N = 1024
SCAN_GRID_SIZE = 500


def gen_random_spd_toeplitz(n: int, lmin: float, lmax: float,
                            seed: int) -> tl.ToeplitzInput:
    """Seeded random symmetric Toeplitz with its spectrum affinely shifted
    so the extreme eigenvalues land on [lmin, lmax]."""
    if not 0 < lmin < lmax:
        raise DimensionError(f"need 0 < lmin < lmax, got [{lmin}, {lmax}]")
    rng = np.random.default_rng(seed)
    col = rng.uniform(-1.0, 1.0, n)
    ev = np.linalg.eigvalsh(scipy.linalg.toeplitz(col))
    a = (lmax - lmin) / (ev[-1] - ev[0])
    b = lmin - a * ev[0]
    out = a * col
    out[0] += b
    return tl.ToeplitzInput(out, out.copy())


def laplacian1d(n: int) -> tl.ToeplitzInput:
    """Tridiagonal 1D Laplacian: 2 on the diagonal, -1 off it."""
    col = np.zeros(n)
    col[0] = 2.0
    col[1] = -1.0
    return tl.ToeplitzInput(col, col.copy())


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
class ExperimentConfig:
    spec: MarkovSpec
    source: tl.ToeplitzInput
    case: str                              # "i" | "ii" | "iii" | "iv"
    reps: tuple[str, ...] = ("pfd", "barycentric", "thiele")
    m_max: int = 20
    with_oracle: bool = True

    def __post_init__(self):
        if self.case not in ("i", "ii", "iii", "iv"):
            raise DimensionError(f"unknown case {self.case!r}")


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


def _spectral_bounds(tin: tl.ToeplitzInput) -> tuple[float, float]:
    ev = np.linalg.eigvalsh(scipy.linalg.toeplitz(tin.col, tin.row))
    return float(ev[0]), float(ev[-1])


def _build_arg(config: ExperimentConfig):
    """MatArg + dense matrix for the oracle, per the case selector."""
    c0, d0 = _spectral_bounds(config.source)
    if config.case == "iv":
        diag = cosine_points(len(config.source.col), c0, d0)
        return mf.diag_arg(diag), np.diag(diag)
    if config.case == "ii":
        c0, d0 = c0 / 2.0, 2.0 * d0
    dense = scipy.linalg.toeplitz(config.source.col, config.source.row)
    if config.case == "iii":
        return mf.dense_arg(dense, c0, d0), dense
    return mf.tl_arg(config.source.matrix(), c0, d0), dense


def _row(case: str, rep: str, rec: mf.DegreeRecord) -> ExperimentRow:
    """CSV row of a sweep record whose measured value is (rel_err, tau)."""
    rel_err, tau = (math.nan, 0) if rec.value is None else rec.value
    apr = math.nan if rec.apriori is None else rec.apriori
    return ExperimentRow(case, rep, rec.m, rel_err, apr, rec.residual,
                         rec.accepted, tau, rec.wall_ms)


def _rows_for_rep(config: ExperimentConfig, rep: str, arg, oracle,
                  oracle_norm) -> list[ExperimentRow]:
    spec = config.spec
    g = build_geometry(spec.alpha, spec.beta, arg.c, arg.d)

    def measure(r):
        """(relative error against the oracle, generator width) of r(A)."""
        approx = mf.eval_rational_at_matrix(r, arg)
        rel_err = math.nan
        if oracle is not None:
            rel_err = float(np.linalg.norm(mf.mat_to_dense(approx) - oracle, 2)
                            / oracle_norm)
        return rel_err, approx.data.width if arg.kind == "tl" else 0

    return [_row(config.case, rep, rec)
            for rec in mf.degree_sweep(spec, arg, g, rep,
                                       range(1, config.m_max + 1), measure)]


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    arg, dense = _build_arg(config)
    if config.with_oracle and dense.shape[0] <= ORACLE_MAX_N:
        oracle = dense_f_oracle(config.spec, dense)
        oracle_norm = float(np.linalg.norm(oracle, 2))
    else:
        oracle, oracle_norm = None, math.nan
    return [row for rep in config.reps
            for row in _rows_for_rep(config, rep, arg, oracle, oracle_norm)]


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
    fz = np.asarray(spec(grid), dtype=float)

    def measure(r):
        return float(np.max(np.abs(1.0 - np.asarray(r(grid)) / fz))), 0

    return [_row("scalar", rep, rec)
            for rep in reps
            for rec in mf.degree_sweep(spec, arg, g, rep, m_range, measure)]

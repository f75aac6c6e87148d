"""Seeded inputs and the operation list of each benchmark workload.

This module imports numpy and scipy only, never marktop: the parent process
uses it to build the inputs and their eigendecomposition oracles, and the
worker process uses the same operation list to call the program.

Every operation names a matrix (or a scalar geometry) and the public entry
point that is called on it.  Every round of a run executes the whole list,
so the share of failed operations does not depend on the run length.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

WORKLOADS = ("tl-levinson", "tl-fallback", "dense")

# Matrix spectra are mapped exactly onto [LO, HI], so the a priori bound of
# every degree is the same on every seed while the eigenvectors change.
LEVINSON_SPECTRUM = (1.0, 10.0)
LEVINSON_OPS = ((512, "inv_sqrt", 6), (2048, "log", 4))   # (n, spec, m_max)
FALLBACK_SPECTRUM = (1.0, 100.0)   # one Newton square root (ell = 1)
FALLBACK_N = 96
DENSE_EXTRA = (128, 128, 256)      # sizes of the further sets of the dense run
# m_max per operation.  Barycentric stops by itself at m = 4 on
# Toeplitz-like arguments (its stall); its cap of 6 keeps dense arguments
# below m = 7 and 8, where on some matrices the accepted degree's error
# exceeds its a priori bound (a FOUND line in CHANGES.md)
FALLBACK_M_MAX = {"log": 4, "frac": 4, "thiele": 5, "barycentric": 6}
SCAN_C_RANGE = (1e-6, 0.3)   # c of the dense run's scalar scan, log-uniform
SCAN_M_MAX = 20
REPS = ("pfd", "barycentric", "thiele")
# entry decay exponents: "p" matrices decay like 1/(1+k)^2, "u" do not
SMOOTH, ROUGH = 2.0, 0.0

_TAGS = {"tl-levinson": 2, "fallback": 3, "dense": 4}
_WARMUP = 1_000_003


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def spd_toeplitz(rng: np.random.Generator, n: int, lo: float, hi: float,
                 decay: float = SMOOTH):
    """Random symmetric Toeplitz column whose spectrum is mapped affinely
    onto [lo, hi], with the eigendecomposition of toeplitz(col).

    Entry k is uniform in [-1, 1] times (1 + k)^-decay.  The affine map
    a T + b I keeps the eigenvectors of T, so one eigh of the unscaled
    matrix gives the oracle of the scaled one.
    """
    col = rng.uniform(-1.0, 1.0, n) / (1.0 + np.arange(n)) ** decay
    w, v = np.linalg.eigh(scipy.linalg.toeplitz(col))
    a = (hi - lo) / (w[-1] - w[0])
    b = lo - a * w[0]
    col = a * col
    col[0] += b
    w = a * w + b
    w[0], w[-1] = lo, hi
    return col, w, v


def _gamma(rng: np.random.Generator) -> float:
    """Exponent in [-0.95, -0.55]: after one square root 2 gamma lies in
    (-2, -1), so frac_power fits z^(2 gamma + 1) and multiplies by the
    inverse square root, the same steps on every seed."""
    return float(rng.uniform(-0.95, -0.55))


def _matrix(mats, oracles, name, rng, n, spectrum, decay=SMOOTH):
    col, w, v = spd_toeplitz(rng, n, *spectrum, decay=decay)
    mats[name] = {"col": col, "c": spectrum[0], "d": spectrum[1]}
    oracles[name] = (w, v)


def _fallback_set(mats, oracles, rng, n, arg, suffix=""):
    """The four densifying operations on two matrices of size n.

    log and frac_power run on a smooth matrix: its square root has a
    generator width of 20 to 21 on every seed, where undamped random
    entries give 13 to 19 and a cost that follows.  thiele and barycentric
    run on an undamped one: there the barycentric stall sits at m = 4 on
    every seed, where on smooth matrices it moves between m = 4 and 5.
    """
    smooth, rough = f"p{n}{suffix}", f"u{n}{suffix}"
    _matrix(mats, oracles, smooth, rng, n, FALLBACK_SPECTRUM, SMOOTH)
    _matrix(mats, oracles, rough, rng, n, FALLBACK_SPECTRUM, ROUGH)
    cap = FALLBACK_M_MAX
    return [
        {"op": "log", "mat": smooth, "arg": arg, "rep": "pfd", "m_max": cap["log"]},
        {"op": "frac", "mat": smooth, "arg": arg, "rep": "pfd", "gamma": _gamma(rng),
         "m_max": cap["frac"]},
        {"op": "auto_degree", "mat": rough, "arg": arg, "spec": "inv_sqrt",
         "rep": "thiele", "m_max": cap["thiele"]},
        {"op": "auto_degree", "mat": rough, "arg": arg, "spec": "inv_sqrt",
         "rep": "barycentric", "m_max": cap["barycentric"]},
    ]


def make_inputs(workload: str, seed: int, warmup: bool = False):
    """(ops, matrices, oracles) of one workload.

    ``ops`` is a JSON-able list of operation descriptions, ``matrices``
    maps a name to its first column and spectral bounds, and ``oracles``
    maps the same name to the eigenpairs (w, V) of toeplitz(col).  With
    ``warmup`` the single warm-up operation is returned, drawn from a seed
    stream that no timed operation uses.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    mats, oracles, ops = {}, {}, []
    tag = _WARMUP if warmup else 0
    if workload == "tl-levinson":
        rng = _rng(seed, _TAGS["tl-levinson"], tag)
        # m_max keeps the last degree's threshold far above the rounding
        # floor of the residual: there the stopping rule decides by
        # rounding and the degree it returns changes from seed to seed
        plan = ((256, "inv_sqrt", 3),) if warmup else LEVINSON_OPS
        for n, spec, m_max in plan:
            _matrix(mats, oracles, f"t{n}", rng, n, LEVINSON_SPECTRUM)
            ops.append({"op": "auto_degree", "mat": f"t{n}", "arg": "tl",
                        "spec": spec, "rep": "pfd", "m_max": m_max,
                        "structured": True})
        return ops, mats, oracles
    # tl-fallback and dense share the first set of matrices and exponents
    rng = _rng(seed, _TAGS["fallback"], tag)
    arg = "tl" if workload == "tl-fallback" else "dense"
    ops += _fallback_set(mats, oracles, rng, FALLBACK_N, arg)
    if warmup:
        # the barycentric operation, capped: it passes through every layer
        # of the timed list at a quarter of the cost
        return [dict(ops[-1], m_max=3)], mats, oracles
    if workload == "dense":
        rng = _rng(seed, _TAGS["dense"])
        for i, n in enumerate(DENSE_EXTRA):
            ops += _fallback_set(mats, oracles, rng, n, "dense", f"_{i}")
        # one scalar scan keeps node construction, the three fits and the
        # experiments layer in a measured run (see README: no scalar run)
        c = float(10.0 ** rng.uniform(*np.log10(SCAN_C_RANGE)))
        ops.append({"op": "scan", "spec": "inv_sqrt", "gamma": None, "c": c,
                    "d": 1.0, "m_max": SCAN_M_MAX})
    return ops, mats, oracles


def scan_points(c: float, d: float) -> np.ndarray:
    """The benchmark's own evaluation points for a scalar fit on [c, d]:
    log-spaced points resolve the error near c, uniform ones near d."""
    return np.unique(np.concatenate([np.geomspace(c, d, 1500),
                                     np.linspace(c, d, 500)]))

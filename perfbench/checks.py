"""Checks of the program's outputs against references made apart from it.

Nothing here imports marktop.  The references are

- the closed-form scalar functions, evaluated at the benchmark's points;
- f(A) = V f(w) V^T from numpy's eigh of scipy.linalg.toeplitz(col);
- the a priori bound 8 rho^(2m) / (1 - 2 rho^(2m))^2, with rho computed
  from scipy's complete elliptic integral;
- a Toeplitz-like result applied through its generator pair by the
  definition A = 1/2 sum_k C_1(g_k) C_-1(J b_k), written here with
  zero-padded linear convolutions (the program uses twiddled FFTs).

Tolerances (see README.md for their sources):

- SCALAR_SLACK: an accepted scalar row and the fit at the last accepted
  degree may exceed the a priori bound by 1e-12, the rounding allowance of
  the repository's acceptance criteria 1 and 8.
- A matrix result may exceed the a priori bound at its degree by
  1e-12 + 100 n eps (d / c): the same allowance plus the rounding of n-term
  inner products amplified by the condition number of the argument.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

EPS = float(np.finfo(float).eps)
SCALAR_SLACK = 1e-12
APRIORI_MATCH = 1e-9     # program's a priori value against ours, relative
DENSE_NORM_MAX_N = 1024  # above this the error norm is estimated on a block
BLOCK = 6
BLOCK_ITERS = 15


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def scalar_f(spec: str, gamma, z):
    """Closed-form Markov functions of the catalog, at real z > 0."""
    z = np.asarray(z, dtype=float)
    if spec == "inv_sqrt":
        return 1.0 / np.sqrt(z)
    if spec == "power":
        return z ** gamma
    if spec == "log":
        w = z - 1.0
        safe = np.where(w == 0.0, 1.0, w)
        return np.where(w == 0.0, 1.0, np.log1p(safe) / safe)
    raise ValueError(f"unknown spec {spec!r}")


def matrix_f(op: dict):
    """The scalar function whose matrix value an operation returns."""
    if op["op"] == "log":
        return np.log
    if op["op"] == "frac":
        gamma = op["gamma"]
        return lambda w: w ** gamma
    return lambda w: scalar_f(op["spec"], op.get("gamma"), w)


def rate(c: float, d: float, beta: float = 0.0) -> float:
    """rho for the condenser ((-inf, beta], [c, d]).

    lambda comes from the cross ratio (d - beta)/(c - beta); with
    mu = lambda^2, rho = exp(-pi K(mu') / (4 K(mu))), K in the modulus
    convention (scipy's ellipk takes the parameter, the modulus squared).
    """
    x = (d - beta) / (c - beta)
    k = 1.0 / math.sqrt(x)
    lam = (1.0 - math.sqrt(k)) / (1.0 + math.sqrt(k))
    mu = lam * lam
    mu_p2 = (1.0 - mu) * (1.0 + mu)
    return math.exp(-math.pi * scipy.special.ellipk(mu_p2)
                    / (4.0 * scipy.special.ellipk(mu * mu)))


def apriori(c: float, d: float, m: int) -> float:
    """8 rho^(2m) / (1 - 2 rho^(2m))^2, or inf where 2 rho^(2m) >= 1."""
    t = rate(c, d) ** (2 * m)
    if 2.0 * t >= 1.0:
        return math.inf
    return 8.0 * t / (1.0 - 2.0 * t) ** 2


def matrix_slack(n: int, c: float, d: float) -> float:
    return SCALAR_SLACK + 100.0 * n * EPS * (d / c)


# ---------------------------------------------------------------------------
# Toeplitz-like generators, applied by their definition
# ---------------------------------------------------------------------------

def _conv(v, x):
    """Linear convolution of v with each column of x, length 2n."""
    n = len(v)
    fv = np.fft.rfft(v, 2 * n)
    fx = np.fft.rfft(x, 2 * n, axis=0)
    return np.fft.irfft(fv[:, None] * fx, 2 * n, axis=0)


def circulant_apply(v, x):
    """C_1(v) x, C_1(v)[i, j] = v[(i - j) mod n]."""
    n = len(v)
    full = _conv(v, x)
    return full[:n] + full[n:]


def skew_apply(v, x):
    """C_-1(v) x, C_-1(v)[i, j] = v[i - j] for i >= j, -v[n + i - j] else."""
    n = len(v)
    full = _conv(v, x)
    return full[:n] - full[n:]


def _circ_t(v):
    return np.concatenate([v[:1], v[:0:-1]])


def _skew_t(v):
    return np.concatenate([v[:1], -v[:0:-1]])


def tl_apply(g, b, x, transpose: bool = False):
    """A x (or A^T x) for Z_1 A - A Z_-1 = G B^T."""
    x = np.asarray(x, dtype=float)
    xm = x[:, None] if x.ndim == 1 else x
    out = np.zeros(xm.shape)
    for k in range(g.shape[1]):
        jb = b[::-1, k]
        if transpose:
            out += skew_apply(_skew_t(jb), circulant_apply(_circ_t(g[:, k]), xm))
        else:
            out += circulant_apply(g[:, k], skew_apply(jb, xm))
    out *= 0.5
    return out[:, 0] if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def matrix_rel_error(result: dict, w, v, f, seed: int = 0) -> float:
    """||R - f(A)||_2 / ||f(A)||_2 for a result R (dense matrix or
    generator pair) against the eigendecomposition A = V diag(w) V^T.

    Up to DENSE_NORM_MAX_N the norm is exact; above, it is the largest
    singular value of E Q after BLOCK_ITERS steps of block subspace
    iteration on E^T E (a lower estimate that converges from below).
    """
    fw = f(w)
    n = len(w)
    fnorm = float(np.max(np.abs(fw)))
    if "dense" in result:
        r_apply = lambda x, t=False: (result["dense"].T if t else result["dense"]) @ x
    else:
        g, b = result["G"], result["B"]
        r_apply = lambda x, t=False: tl_apply(g, b, x, transpose=t)
    o_apply = lambda x: v @ (fw[:, None] * (v.T @ x))
    if n <= DENSE_NORM_MAX_N:
        e = r_apply(np.eye(n)) - (v * fw) @ v.T
        return float(np.linalg.norm(e, 2)) / fnorm
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, BLOCK)))
    for _ in range(BLOCK_ITERS):
        y = r_apply(q) - o_apply(q)
        z = r_apply(y, True) - o_apply(y)
        q, _ = np.linalg.qr(z)
    y = r_apply(q) - o_apply(q)
    return float(np.linalg.norm(y, 2)) / fnorm


def digits(err: float) -> float:
    """-log10 of a relative error; an exact result counts as 16 digits."""
    return 16.0 if err <= 0.0 else -math.log10(err)


# ---------------------------------------------------------------------------
# checkers: each returns (digits, problems); no problem means the op passed
# ---------------------------------------------------------------------------

def check_matrix(op: dict, mat: dict, result: dict, w, v) -> tuple[float, list]:
    """The error of a matrix result at the degree it returns must stay
    within the a priori bound of that degree on the geometry that degree
    was fitted on, plus the rounding allowance."""
    problems = []
    n = len(w)
    c, d = mat["c"], mat["d"]
    m = int(result["m"])
    ell = int(result.get("ell", 0))
    c_in, d_in = c ** (0.5 ** ell), d ** (0.5 ** ell)
    err = matrix_rel_error(result, w, v, matrix_f(op))
    if not math.isfinite(err):
        return 0.0, [f"nonfinite error {err}"]
    bound = apriori(c_in, d_in, m) + matrix_slack(n, c, d)
    if not err <= bound:
        problems.append(f"error {err:.3e} above bound {bound:.3e} at m={m}")
    if op["op"] == "auto_degree":
        accepted = [row[0] for row in result["history"] if row[3]]
        if m not in accepted:
            problems.append(f"returned m={m} is not an accepted degree")
    if op.get("structured") and result["to_dense"]:
        problems.append(f"{result['to_dense']} to_dense calls on the Levinson path")
    return digits(err), problems


def check_scan(op: dict, rows: dict, fits: dict) -> tuple[float, list]:
    """Scan rows and the fits at the last accepted degree.

    ``rows`` holds the arrays rep, m, rel_err, apriori, accepted of the
    returned rows; ``fits`` maps each representation to (m, points,
    r(points)) for its last accepted degree.
    """
    problems = []
    c, d = op["c"], op["d"]
    for rep, m, err, apr, acc in zip(rows["rep"], rows["m"], rows["rel_err"],
                                     rows["apriori"], rows["accepted"]):
        ours = apriori(c, d, int(m))
        if math.isfinite(ours) and abs(apr - ours) > APRIORI_MATCH * ours:
            problems.append(f"{rep} m={m}: a priori {apr:.6e}, expected {ours:.6e}")
        if acc and math.isfinite(ours) and not err <= ours + SCALAR_SLACK:
            problems.append(f"{rep} m={m}: accepted row error {err:.3e} "
                            f"above a priori {ours:.3e}")
    worst = math.inf
    for rep in sorted(set(rows["rep"])):
        if rep not in fits:
            problems.append(f"{rep}: no accepted degree")
            continue
        m, z, rz = fits[rep]
        fz = scalar_f(op["spec"], op["gamma"], z)
        err = float(np.max(np.abs(1.0 - rz / fz)))
        bound = apriori(c, d, m) + SCALAR_SLACK
        if not err <= bound:
            problems.append(f"{rep} m={m}: error {err:.3e} above bound {bound:.3e}")
        worst = min(worst, digits(err) if math.isfinite(err) else 0.0)
    return (0.0 if not math.isfinite(worst) else worst), problems

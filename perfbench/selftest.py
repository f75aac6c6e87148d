"""Tests of the benchmark's own checks: each checker accepts a correct
result and rejects a corrupted one.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

The file name keeps it out of the repository's tier-1 pytest collection.
"""

import math
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RNG = np.random.default_rng(7)


def _matrix(n=64, lo=1.0, hi=4.0):
    col, w, v = workloads.spd_toeplitz(RNG, n, lo, hi)
    return {"col": col, "c": lo, "d": hi}, w, v


def _exact(w, v, f):
    return (v * f(w)) @ v.T


def test_tl_apply_satisfies_displacement_equation():
    n, r = 16, 3
    g, b = RNG.standard_normal((n, r)), RNG.standard_normal((n, r))
    a = checks.tl_apply(g, b, np.eye(n))
    z1 = np.eye(n, k=-1)
    z1[0, -1] = 1.0
    zm1 = np.eye(n, k=-1)
    zm1[0, -1] = -1.0
    assert np.allclose(z1 @ a - a @ zm1, g @ b.T, atol=1e-12)
    assert np.allclose(checks.tl_apply(g, b, np.eye(n), transpose=True), a.T, atol=1e-12)


def test_tl_apply_reads_program_generators():
    from marktop.tlalgebra import from_toeplitz

    col = RNG.uniform(-1.0, 1.0, 33)
    t = from_toeplitz(col)
    assert np.allclose(checks.tl_apply(t.G, t.B, np.eye(33)),
                       scipy.linalg.toeplitz(col), atol=1e-13)


def test_apriori_matches_program():
    from marktop import apriori_bound, build_geometry

    for c, d, m in ((1e-6, 1.0, 20), (1.0, 100.0, 4), (1.0, 2.0, 7)):
        ours = checks.apriori(c, d, m)
        theirs = apriori_bound(build_geometry(-math.inf, 0.0, c, d), m)
        assert abs(ours - theirs) <= checks.APRIORI_MATCH * theirs


def test_block_norm_estimate_matches_exact_norm():
    mat, w, v = _matrix(n=80)
    f = lambda x: x ** -0.5
    e = RNG.standard_normal((80, 80)) * 1e-3
    r = _exact(w, v, f) + e + e.T
    exact = checks.matrix_rel_error({"dense": r}, w, v, f)
    old = checks.DENSE_NORM_MAX_N
    checks.DENSE_NORM_MAX_N = 10
    try:
        est = checks.matrix_rel_error({"dense": r}, w, v, f)
    finally:
        checks.DENSE_NORM_MAX_N = old
    assert est <= exact * (1 + 1e-12) and est >= 0.99 * exact


def test_matrix_check_rejects_scaled_result():
    mat, w, v = _matrix()
    op = {"op": "auto_degree", "spec": "inv_sqrt", "arg": "dense"}
    good = {"dense": _exact(w, v, lambda x: x ** -0.5), "m": 12, "ell": 0,
            "history": [(12, 0.0, 1e-20, True)], "to_dense": 0}
    d, problems = checks.check_matrix(op, mat, good, w, v)
    assert problems == [] and d > 12
    bad = dict(good, dense=good["dense"] * (1 + 1e-6))
    d, problems = checks.check_matrix(op, mat, bad, w, v)
    assert problems and "above bound" in problems[0]
    assert abs(d - 6.0) < 0.01


def test_matrix_check_rejects_unaccepted_degree():
    mat, w, v = _matrix()
    op = {"op": "auto_degree", "spec": "inv_sqrt", "arg": "dense"}
    res = {"dense": _exact(w, v, lambda x: x ** -0.5), "m": 3, "ell": 0,
           "history": [(3, 1.0, 1e-3, False)], "to_dense": 0}
    _, problems = checks.check_matrix(op, mat, res, w, v)
    assert any("not an accepted degree" in p for p in problems)


def test_matrix_check_rejects_densify_on_levinson_path():
    mat, w, v = _matrix()
    op = {"op": "auto_degree", "spec": "inv_sqrt", "arg": "tl", "structured": True}
    exact = _exact(w, v, lambda x: x ** -0.5)
    # the exact f(A) as a generator pair: G = Z1 F - F Zm1, B = I
    z1 = np.eye(64, k=-1)
    z1[0, -1] = 1.0
    zm1 = np.eye(64, k=-1)
    zm1[0, -1] = -1.0
    res = {"G": z1 @ exact - exact @ zm1, "B": np.eye(64), "m": 12, "ell": 0,
           "history": [(12, 0.0, 1e-20, True)], "to_dense": 0}
    _, problems = checks.check_matrix(op, mat, res, w, v)
    assert problems == [], problems
    _, problems = checks.check_matrix(op, mat, dict(res, to_dense=1), w, v)
    assert problems == ["1 to_dense calls on the Levinson path"]


def test_log_check_uses_inner_geometry():
    mat, w, v = _matrix(lo=1.0, hi=100.0)
    op = {"op": "log", "arg": "dense"}
    res = {"dense": _exact(w, v, np.log), "m": 4, "ell": 1,
           "history": [(4, 0.0, 1e-6, True)], "to_dense": 0}
    assert checks.check_matrix(op, mat, res, w, v)[1] == []
    # 1e-5 is inside the bound of m = 4 on [1, 100] but not on [1, 10]
    bad = dict(res, dense=res["dense"] * (1 + 1e-5))
    assert checks.check_matrix(op, mat, bad, w, v)[1]


def _scan(c=1e-3, spec="inv_sqrt"):
    ms = np.arange(1, 9)
    apr = np.array([checks.apriori(c, 1.0, int(m)) for m in ms])
    rows = {"rep": np.array(["pfd"] * len(ms)), "m": ms, "rel_err": apr / 10,
            "apriori": apr.copy(), "accepted": np.ones(len(ms), bool)}
    z = workloads.scan_points(c, 1.0)
    fits = {"pfd": (8, z, checks.scalar_f(spec, None, z))}
    return {"op": "scan", "spec": spec, "gamma": None, "c": c, "d": 1.0}, rows, fits


def test_scan_check_accepts_consistent_rows():
    op, rows, fits = _scan()
    d, problems = checks.check_scan(op, rows, fits)
    assert problems == [] and d == 16.0


def test_scan_check_rejects_row_above_its_bound():
    op, rows, fits = _scan()
    rows["rel_err"][3] = rows["apriori"][3] * 10 + 1e-11
    _, problems = checks.check_scan(op, rows, fits)
    assert len(problems) == 1 and "accepted row error" in problems[0]
    rows["accepted"][3] = False     # a rejected row may exceed its bound
    assert checks.check_scan(op, rows, fits)[1] == []


def test_scan_check_rejects_fit_off_the_closed_form():
    op, rows, fits = _scan(spec="log")
    m, z, rz = fits["pfd"]
    fits["pfd"] = (m, z, rz * (1 + 1e-5))   # the bound at m = 8 is 6.6e-7
    _, problems = checks.check_scan(op, rows, fits)
    assert problems and "above bound" in problems[0]


def test_scan_check_rejects_mislabelled_apriori():
    op, rows, fits = _scan()
    rows["apriori"][0] *= 2
    assert any("a priori" in p for p in checks.check_scan(op, rows, fits)[1])


def test_tally_counts_failures_per_round():
    rounds = [{"error": [None, "MarktopError: x", None], "differs": [False] * 3},
              {"error": [None, "MarktopError: x", None], "differs": [False, False, True]}]
    assert run.tally(rounds, [[], [], []]) == (6, 3, True)
    assert run.tally(rounds[:1], [[], [], []]) == (3, 1, False)
    assert run.tally(rounds[:1], [["bad"], [], []]) == (3, 2, True)


def test_layer_metrics_self_time_and_nested_solves():
    spans = [["matfun.auto_degree", 0.0, 10.0, -1, {"tried": 3, "accepted": 2}],
             ["tlalgebra.invert", 1.0, 5.0, 0, {}],
             ["tlalgebra.solve.dense", 1.0, 2.0, 1, {}],
             ["tlalgebra.solve.dense", 1.5, 2.0, 2, {}],
             ["tlalgebra.to_dense", 1.5, 1.75, 3, {"n": 128}]]
    out = layers.layer_metrics(spans, 7, 10.0)
    assert out["matfun.self_s"] == 6.0
    assert out["tlalgebra.invert.self_s"] == 3.0
    assert out["tlalgebra.solve.dense.calls"] == 1
    assert out["tlalgebra.solve.dense.self_s"] == 0.75
    assert out["tlalgebra.to_dense.calls"] == 1
    assert out["tlalgebra.to_dense.n.max"] == 128
    assert out["matfun.auto_degree.degrees_tried"] == 3
    assert out["tlalgebra.peak_width"] == 7


def test_inputs_repeat_for_a_seed():
    a = workloads.make_inputs("tl-fallback", 3)
    b = workloads.make_inputs("dense", 3)
    assert np.array_equal(a[1]["p96"]["col"], b[1]["p96"]["col"])
    assert a[0][1]["gamma"] == b[0][1]["gamma"]
    c = workloads.make_inputs("tl-fallback", 4)
    assert not np.array_equal(a[1]["p96"]["col"], c[1]["p96"]["col"])
    w = workloads.make_inputs("tl-fallback", 3, warmup=True)
    assert not np.array_equal(a[1]["p96"]["col"], w[1]["p96"]["col"])


if __name__ == "__main__":
    tests = [(k, f) for k, f in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")

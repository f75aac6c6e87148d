"""One process of a benchmark run: set up, warm up, then timed rounds.

    python3 perfbench/worker.py --run-dir DIR --workload W --seconds S
                                [--trace 0|1] [--probe] [--t0 MONOTONIC]

DIR/inputs.json holds the operation list and the matrices that run.py made
from the seed.  The worker imports marktop from ./src, builds every
operation's arguments through the program (this is the set-up that setup_s
times, from --t0, the parent's clock reading just before it started this
process), runs one warm-up operation from a seed stream outside the timed
list, and then runs whole rounds of the list until --seconds have passed.
With --probe it stops after the set-up and prints only its set-up time.

Each round starts from fresh arguments, and each operation with the
program's function caches empty, so every round does the same work and no
operation reuses another's nodes.  The outputs of the first
round are written to DIR/outputs.npz for run.py to check; a later round
whose output differs from the first counts as failed.
"""

import os
import sys
import time

_T_SELF = time.monotonic()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads its BLAS

import argparse
import gc
import json
import resource
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np
import scipy.linalg

import marktop as mt
from marktop import experiments as ex
from marktop import matfun as mf
from marktop import tlalgebra as tl

import layers
import workloads


def _spec(name, gamma):
    if name == "inv_sqrt":
        return mt.inv_sqrt_spec()
    if name == "log":
        return mt.log_spec()
    return mt.power_spec(gamma)


def build_calls(ops, mats):
    """One zero-argument callable per operation, with arguments built
    through the program.  The callables look the entry points up on their
    modules when called, so trace wrappers installed later apply."""
    args = {}

    def arg(name, kind):
        if (name, kind) not in args:
            m = mats[name]
            if kind == "tl":
                args[name, kind] = mf.tl_arg(tl.from_toeplitz(m["col"]), m["c"], m["d"])
            else:
                args[name, kind] = mf.dense_arg(scipy.linalg.toeplitz(m["col"]),
                                                m["c"], m["d"])
        return args[name, kind]

    calls = []
    for op in ops:
        kind = op["op"]
        if kind == "scan":
            spec = _spec(op["spec"], op["gamma"])
            calls.append(lambda op=op, spec=spec: ex.scalar_scan(
                spec, op["c"], op["d"], range(1, op["m_max"] + 1), workloads.REPS))
            continue
        a = arg(op["mat"], op["arg"])
        if kind == "log":
            calls.append(lambda op=op, a=a: mf.log_via_scaling(a, op["rep"], op["m_max"]))
        elif kind == "frac":
            calls.append(lambda op=op, a=a: mf.frac_power(a, op["gamma"], op["rep"],
                                                           op["m_max"]))
        else:
            spec = _spec(op["spec"], op.get("gamma"))
            g = mt.build_geometry(spec.alpha, spec.beta, a.c, a.d)
            calls.append(lambda op=op, a=a, spec=spec, g=g: mf.auto_degree(
                spec, a, g, op["rep"], op["m_max"]))
    return calls


def clear_program_caches():
    """Empty every functools cache on a module-level marktop function."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("marktop"):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class DenseCounter:
    """Counts tlalgebra.to_dense calls: the Levinson path must make none."""

    def __init__(self):
        self.calls = 0
        inner = tl.to_dense

        def to_dense(a):
            self.calls += 1
            return inner(a)

        tl.to_dense = to_dense


def extract(op, out, dense_calls):
    """The parts of an operation's output that run.py checks, as arrays."""
    if op["op"] == "scan":
        return {"rep": np.array([r.rep for r in out]),
                "m": np.array([r.m for r in out]),
                "rel_err": np.array([r.rel_err for r in out]),
                "apriori": np.array([r.apriori for r in out]),
                "residual": np.array([r.residual for r in out]),
                "accepted": np.array([r.accepted for r in out])}
    data = out.approximation.data
    res = {"m": np.array(out.m),
           "history": np.array([[h[0], h[1], np.nan if h[2] is None else h[2], h[3]]
                                for h in out.history], dtype=float).reshape(-1, 4),
           "ell": np.array(out.scaling[0] if out.scaling else 0),
           "to_dense": np.array(dense_calls)}
    if isinstance(data, tl.TLMatrix):
        res["G"], res["B"] = data.G, data.B
    else:
        res["dense"] = np.asarray(data)
    return res


def same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and np.array_equal(
            a[k], b[k], equal_nan=a[k].dtype.kind == "f") for k in a)


def scan_fits(op, rows):
    """Refit each representation at its last accepted degree and evaluate
    it at the benchmark's own points (outside the timed region)."""
    spec = _spec(op["spec"], op["gamma"])
    g = mt.build_geometry(spec.alpha, spec.beta, op["c"], op["d"])
    z = workloads.scan_points(op["c"], op["d"])
    fits = {}
    for rep in workloads.REPS:
        acc = [int(m) for r, m, a in zip(rows["rep"], rows["m"], rows["accepted"])
               if r == rep and a]
        if acc:
            m = max(acc)
            r = mt.fit_interpolant(spec, mt.optimal_nodes(g, m), rep,
                                   interval=(spec.alpha, spec.beta))
            fits[rep] = (m, z, np.asarray(r(z), dtype=float))
    return fits


def peak_rss() -> float:
    """Peak resident set of this process image in KiB.

    VmHWM belongs to the image that exec started.  ru_maxrss would also
    count the parent's peak at fork, which here holds the n = 2048 oracle.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--run-dir", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--probe", action="store_true")
    p.add_argument("--t0", type=float, default=None)
    opts = p.parse_args()
    t_start = _T_SELF if opts.t0 is None else opts.t0
    run_dir = Path(opts.run_dir)

    with open(run_dir / "inputs.json") as fh:
        inputs = json.load(fh)
    ops = inputs["ops"]
    mats = {k: dict(v, col=np.array(v["col"])) for k, v in inputs["mats"].items()}
    build_calls(ops, mats)
    setup_s = time.monotonic() - t_start
    if opts.probe:
        print(json.dumps({"setup_s": setup_s}))
        return

    warnings.simplefilter("ignore")
    counter = DenseCounter()
    w_ops, w_mats, _ = workloads.make_inputs(opts.workload, inputs["seed"], warmup=True)
    w_mats = {k: dict(v, col=np.asarray(v["col"])) for k, v in w_mats.items()}
    for call in build_calls(w_ops, w_mats):
        call()

    tracer = None
    if opts.trace:
        tracer = layers.Tracer(mt.MarktopError)
        layers.install(tracer, mt)

    first, rounds, layer_rounds = [None] * len(ops), [], []
    t_run = time.perf_counter()
    while not rounds or time.perf_counter() - t_run < opts.seconds:
        calls = build_calls(ops, mats)
        if hasattr(tl, "reset_stats"):
            tl.reset_stats()
        span0 = len(tracer.spans) if tracer else 0
        rnd = {"wall": [], "cpu": [], "error": [], "differs": []}
        outs = []
        for op, call in zip(ops, calls):
            counter.calls = 0
            clear_program_caches()
            gc.collect()
            if tracer:
                tracer.active = True
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out, err = call(), None
            except Exception as exc:  # a failed operation; the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.active = False
            rnd["wall"].append(t1 - t0)
            rnd["cpu"].append(c1 - c0)
            rnd["error"].append(err)
            outs.append(None if out is None else extract(op, out, counter.calls))
        # an operation is checked on its first output; every later round
        # must reproduce that output exactly
        first = [o if f is None else f for o, f in zip(outs, first)]
        rnd["differs"] = [o is not None and not same(o, f) for o, f in zip(outs, first)]
        rounds.append(rnd)
        if tracer:
            stats = tl.get_stats() if hasattr(tl, "get_stats") else {}
            spans = [s[:3] + [s[3] - span0 if s[3] >= 0 else -1, s[4]]
                     for s in tracer.spans[span0:]]
            layer_rounds.append(layers.layer_metrics(
                spans, stats.get("peak_width", 0), sum(rnd["wall"])))
    peak_rss_mb = peak_rss() / 1024.0

    arrays = {}
    for i, (op, out) in enumerate(zip(ops, first)):
        if out is None:
            continue
        for k, v in out.items():
            arrays[f"{i}.{k}"] = v
        if op["op"] == "scan":
            for rep, (m, z, rz) in scan_fits(op, out).items():
                arrays[f"{i}.fit.{rep}.m"] = np.array(m)
                arrays[f"{i}.fit.{rep}.z"] = z
                arrays[f"{i}.fit.{rep}.r"] = rz
    np.savez(run_dir / "outputs.npz", **arrays)
    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "rounds": rounds}
    if tracer:
        result["layers"] = layers.median_metrics(layer_rounds)
        tracer.dump(run_dir / "spans.jsonl")
    with open(run_dir / "result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

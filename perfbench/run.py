"""Benchmark of marktop: the Levinson Toeplitz-like path, the densifying
Toeplitz-like path and the dense reference, which also runs a scalar scan.

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/marktop``.  For one
workload this process makes the seeded inputs and their eigh oracles,
starts set-up probes and one worker process (worker.py), checks the
worker's outputs against the oracles, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Without --workload it runs every workload, untraced and traced, each in
its own processes, and prints a table with the tracing overhead.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads its BLAS

import argparse
import json
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 2              # set-up samples besides the worker's own
WORKER_TIMEOUT = 130.0  # seconds; with the probes a run ends within 180
PROBE_TIMEOUT = 20.0

END_TO_END = (("setup_s", "s"), ("batch_s", "s"), ("batch_cpu_s", "s"),
              ("op_s.p50", "s"), ("peak_rss_mb", "MB"), ("digits.min", "digits"))


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _worker(run_dir, workload, seconds, trace, probe, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--run-dir", str(run_dir),
           "--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(time.monotonic())]
    if probe:
        cmd.append("--probe")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{workload}: worker exited with {proc.returncode}\n{proc.stderr[-3000:]}")
    return proc.stdout


def check_outputs(ops, mats, oracles, arrays):
    """(digits per op, problems per op) for the first round's outputs."""
    digits, problems = [], []
    for i, op in enumerate(ops):
        pre = f"{i}."
        out = {k[len(pre):]: arrays[k] for k in arrays.files if k.startswith(pre)}
        if not out:
            digits.append(None)
            problems.append([])   # raised: already a failure
            continue
        if op["op"] == "scan":
            fits = {}
            for rep in ("pfd", "barycentric", "thiele"):
                if f"fit.{rep}.m" in out:
                    fits[rep] = (int(out[f"fit.{rep}.m"]), out[f"fit.{rep}.z"],
                                 out[f"fit.{rep}.r"])
            rows = {k: out[k] for k in ("rep", "m", "rel_err", "apriori", "accepted")}
            d, p = checks.check_scan(op, rows, fits)
        else:
            result = {k: out[k] for k in ("G", "B", "dense") if k in out}
            result.update(m=int(out["m"]), ell=int(out["ell"]),
                          history=[tuple(r[:3]) + (bool(r[3]),) for r in out["history"]],
                          to_dense=int(out["to_dense"]))
            w, v = oracles[op["mat"]]
            d, p = checks.check_matrix(op, mats[op["mat"]], result, w, v)
        digits.append(d)
        problems.append(p)
    return digits, problems


def tally(rounds, problems):
    """(attempted, failed, wrong) over every round of a run.

    An operation fails in a round when it raised, when its output differs
    from the first round's, or when the first round's output failed a
    check (later rounds are identical to it).  ``wrong`` marks a run with a
    result that completed but is incorrect, as opposed to one refused.
    """
    attempted = failed = 0
    wrong = False
    for rnd in rounds:
        for i, probs in enumerate(problems):
            attempted += 1
            failed += bool(rnd["error"][i] is not None or rnd["differs"][i] or probs)
            wrong |= bool(probs) or rnd["differs"][i]
    return attempted, failed, wrong


def run_workload(workload, seed, seconds, trace):
    ops, mats, oracles = workloads.make_inputs(workload, seed)
    run_dir = OUT / f"{workload}-{seed}-{trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        with open(run_dir / "inputs.json", "w") as fh:
            json.dump({"seed": seed, "ops": ops,
                       "mats": {k: dict(v, col=v["col"].tolist()) for k, v in mats.items()}},
                      fh)
        setups = []
        if not trace:
            for _ in range(PROBES):
                line = _worker(run_dir, workload, seconds, 0, True, PROBE_TIMEOUT)
                setups.append(json.loads(line.strip().splitlines()[-1])["setup_s"])
        _worker(run_dir, workload, seconds, trace, False, WORKER_TIMEOUT)
        with open(run_dir / "result.json") as fh:
            res = json.load(fh)
        with np.load(run_dir / "outputs.npz") as arrays:
            digits, problems = check_outputs(ops, mats, oracles, arrays)
        if trace:
            OUT.mkdir(exist_ok=True)
            shutil.copyfile(run_dir / "spans.jsonl", OUT / f"spans-{workload}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = res["rounds"]
    attempted, failed, wrong = tally(rounds, problems)
    for i, op in enumerate(ops):
        errs = {rnd["error"][i] for rnd in rounds} - {None}
        for msg in sorted(errs) + problems[i]:
            print(f"  FAILED op {i} ({op['op']} {op.get('mat', op.get('c'))}): {msg}",
                  file=sys.stderr)
    walls = [w for rnd in rounds for w in rnd["wall"]]
    op_medians = [statistics.median(r["wall"][i] for r in rounds) for i in range(len(ops))]
    setups.append(res["setup_s"])
    finite = [d for d in digits if d is not None]
    e2e = {
        "setup_s": statistics.median(setups),
        "batch_s": statistics.median(sum(r["wall"]) for r in rounds),
        "batch_cpu_s": statistics.median(sum(r["cpu"]) for r in rounds),
        "op_s.p50": statistics.median(op_medians),
        "peak_rss_mb": res["peak_rss_mb"],
        "digits.min": min(finite) if finite else 0.0,
    }
    per_op = [(describe(op), t, d) for op, t, d in zip(ops, op_medians, digits)]
    return {"workload": workload, "seed": seed, "rounds": len(rounds),
            "ops": len(walls), "correct": not wrong, "attempted": attempted,
            "failed": failed, "e2e": e2e, "layers": res.get("layers"),
            "per_op": per_op, "setups": setups}


def describe(op) -> str:
    if op["op"] == "scan":
        return f"scalar_scan {op['spec']} c={op['c']:.3g}"
    if op["op"] == "log":
        what = "log_via_scaling"
    elif op["op"] == "frac":
        what = f"frac_power({op['gamma']:.3f})"
    else:
        what = f"auto_degree {op['spec']}"
    return f"{what} {op['rep']} m_max={op['m_max']} {op['arg']} {op['mat']}"


def report(r, trace):
    print(f"{r['workload']}: seed {r['seed']}, {r['rounds']} rounds, "
          f"{r['attempted']} operations attempted, {r['failed']} failed")
    for desc, wall, dig in r["per_op"]:
        shown = "raised" if dig is None else f"{dig:.2f} digits"
        print(f"  op {desc}: {wall:.4g} s, {shown}")
    if trace:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in r["layers"].items()}
    else:
        for name, u in END_TO_END:
            extra = (f" (median over {len(r['per_op'])} operations of their median over"
                     f" {r['rounds']} rounds; {r['ops']} samples)") if name == "op_s.p50" else ""
            print(f"  {name} = {r['e2e'][name]:.6g} {u}{extra}")
        print("  setup samples: " + " ".join(f"{x:.3f}" for x in r["setups"]))
        metrics = {k: {"value": r["e2e"][k], "unit": u} for k, u in END_TO_END}
    return {"correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count"


def run_all(seed, seconds):
    rows, ok = [], True
    for w in workloads.WORKLOADS:
        got = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=200)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                fail(f"{w} exited with {proc.returncode}")
            got[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        e2e = got[0]["metrics"]
        overhead = got[1]["metrics"]["trace.batch_s"]["value"] / e2e["batch_s"]["value"] - 1
        ok &= got[0]["correct"] and got[0]["failed"] == 0
        rows.append((w, got[0], overhead))
    print()
    head = ["workload", "attempted", "failed"] + [f"{n} [{u}]" for n, u in END_TO_END] \
        + ["trace overhead"]
    print(" | ".join(head))
    for w, r, ovh in rows:
        vals = [f"{r['metrics'][n]['value']:.4g}" for n, _ in END_TO_END]
        print(" | ".join([w, str(r["attempted"]), str(r["failed"])] + vals
                         + [f"{100 * ovh:+.0f}%"]))
    total = {"correct": ok, "attempted": sum(r["attempted"] for _, r, _ in rows),
             "failed": sum(r["failed"] for _, r, _ in rows),
             "metrics": {f"{w}.{k}": v for w, r, _ in rows for k, v in r["metrics"].items()}}
    print(json.dumps(total))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    opts = p.parse_args()
    if not (ROOT / "src" / "marktop" / "__init__.py").is_file():
        fail(f"no marktop sources under {ROOT / 'src'}; run from a checkout")
    if opts.workload is None:
        run_all(opts.seed, opts.seconds)
        return
    r = run_workload(opts.workload, opts.seed, opts.seconds, opts.trace)
    print(json.dumps(report(r, opts.trace)))


if __name__ == "__main__":
    main()

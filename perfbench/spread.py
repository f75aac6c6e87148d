"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--seconds S]

Runs run.py once per seed, one run at a time, and prints for each metric
the median, the quartiles (statistics.quantiles with n=4) and the
interquartile distance as a share of the median, next to the metric's
bound in BENCHMARK.json.  The share of failed operations is printed too.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=float, default=None)
    opts = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, shares = {}, []
    for seed in opts.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", opts.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(res["failed"] / res["attempted"])
        line = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(line), flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {(q3 - q1) / med:.3f}  bound {bounds.get(name, float('nan'))}")


if __name__ == "__main__":
    main()

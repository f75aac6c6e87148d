"""Compare the outputs of two checkouts on every benchmark operation.

    python3 tools/same_outputs.py PARENT_DIR CHANGE_DIR

Each checkout runs, in its own subprocess, every operation of the three
workloads at seeds 1, 2 and 3 through its own ``perfbench/worker.build_calls``
and ``worker.extract``, and scores each output with ``perfbench/checks``
against the eigh oracles of ``perfbench/workloads``.  Nothing under
``perfbench/`` is written.  One line per operation gives the verdict:

    bitwise         every output array is equal by ``worker.same`` (the
                    to_dense count aside)
    bitwise, history from m = k
                    the same, but the change's degree history is the tail
                    of the parent's rows from degree k on: it started its
                    degree search at k
    same result, history residuals moved by <= x relative
                    every output but the degree history is bitwise equal,
                    and so are the history's degrees and accept flags; x is
                    the largest relative change of a history residual
    same m/ell/accept flags, |delta digits| = x
                    returned degree, scaling and per-degree accept flags
                    agree, and the checked digits differ by x
    same error      both checkouts raise the same error
    differs         anything else; when neither checkout raised, followed
                    by the returned degree, scaling and checked digits as
                    parent -> change (degree and digits only for a scan)

A summary per workload follows.  The exit status is 1 if any operation
differs, else 0.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads its BLAS

import argparse
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

WORKLOADS = ("tl-levinson", "tl-fallback", "dense")
SEEDS = (1, 2, 3)
WORK_COUNTERS = ("to_dense",)   # counts of work, not outputs
# this checkout's perfbench/, last on sys.path: the comparison takes
# worker.same from it, while a child run puts its own tree's first
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))


def _label(op: dict) -> str:
    if op["op"] == "scan":
        return f"scan {op['spec']}"
    name = op["op"] if op["op"] != "auto_degree" else f"auto_degree {op['spec']}"
    return f"{name} {op['rep']} {op['mat']}"


def run_tree(tree: Path) -> list[dict]:
    """One record per operation of the tree's own benchmark code."""
    sys.path.insert(0, str(tree / "perfbench"))
    # worker puts the tree's src/ first on sys.path before importing marktop
    import checks
    import worker
    import workloads as wl

    warnings.simplefilter("ignore")
    counter = worker.DenseCounter()
    records = []
    for name in WORKLOADS:
        for seed in SEEDS:
            ops, mats, oracles = wl.make_inputs(name, seed)
            mats = {k: dict(v, col=np.asarray(v["col"])) for k, v in mats.items()}
            for i, (op, call) in enumerate(zip(ops, worker.build_calls(ops, mats))):
                rec = {"workload": name, "seed": seed, "index": i, "label": _label(op),
                       "error": None, "out": None, "digits": None}
                counter.calls = 0
                worker.clear_program_caches()
                try:
                    out = worker.extract(op, call(), counter.calls)
                except Exception as exc:  # recorded, compared like an output
                    rec["error"] = f"{type(exc).__name__}: {exc}"
                    records.append(rec)
                    continue
                if op["op"] == "scan":
                    digits, _ = checks.check_scan(op, out, worker.scan_fits(op, out))
                else:
                    digits, _ = checks.check_matrix(op, mats[op["mat"]], out,
                                                    *oracles[op["mat"]])
                rec["out"], rec["digits"] = out, digits
                records.append(rec)
    return records


def _flags(out: dict) -> dict:
    """Returned degree, scaling and accept flags of one output."""
    if "history" in out:
        return {"m": out["m"], "ell": out["ell"], "flags": out["history"][:, [0, 3]]}
    return {k: out[k] for k in ("rep", "m", "accepted")}


VERDICTS = ("bitwise", "history tail", "same result", "same flags", "same error",
            "differs")


def _residual_move(ha: np.ndarray, hb: np.ndarray) -> float:
    """Largest relative change of a history residual; 0 where the two are
    equal, both inf included."""
    ra, rb = ha[:, 1], hb[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = np.where(ra == rb, 0.0, np.abs(rb - ra) / np.abs(ra))
    return float(np.max(moved, initial=0.0))


def verdict(a: dict, b: dict) -> tuple[str, float | None]:
    """(one of VERDICTS, x) for two records of one operation: x is the
    largest relative residual change for "same result", |delta digits|
    for the verdicts before it and for "same flags", else None."""
    from worker import same   # imported here so that a child run loads its own tree's

    if a["error"] or b["error"]:
        return ("same error", None) if a["error"] == b["error"] else ("differs", None)
    oa, ob = ({k: v for k, v in r["out"].items() if k not in WORK_COUNTERS}
              for r in (a, b))
    if same(oa, ob):
        return "bitwise", 0.0
    ha, hb = oa.get("history"), ob.get("history")
    # a shorter history equal to the last rows of the parent's
    if ha is not None and hb is not None and 0 < len(hb) < len(ha) \
            and same(dict(oa, history=ha[len(ha) - len(hb):]), ob):
        return "history tail", 0.0
    if ha is not None and hb is not None \
            and same(dict(oa, history=ha[:, [0, 3]]), dict(ob, history=hb[:, [0, 3]])):
        return "same result", _residual_move(ha, hb)
    if same(_flags(oa), _flags(ob)):
        return "same flags", abs(a["digits"] - b["digits"])
    return "differs", None


def _changes(a: dict, b: dict) -> str:
    """'m x -> y, ell x -> y, digits x -> y' for two records that both
    returned; a scan's m is the largest degree of its rows."""
    keys = ("m", "ell") if "ell" in a["out"] else ("m",)
    parts = [f"{k} {np.max(a['out'][k]):g} -> {np.max(b['out'][k]):g}" for k in keys]
    return ", ".join(parts + [f"digits {a['digits']:.2f} -> {b['digits']:.2f}"])


def compare(parent: list[dict], change: list[dict]) -> bool:
    """Print one line per operation and a summary per workload; True when
    no operation differs."""
    if [(r["workload"], r["seed"], r["index"]) for r in parent] != \
            [(r["workload"], r["seed"], r["index"]) for r in change]:
        print("differs: the checkouts run different operation lists")
        return False
    counts, worst = {}, {}
    for a, b in zip(parent, change):
        kind, delta = verdict(a, b)
        text = kind
        if kind == "same flags":
            text = f"same m/ell/accept flags, |delta digits| = {delta:.2e}"
        elif kind == "history tail":
            text = f"bitwise, history from m = {b['out']['history'][0, 0]:g}"
        elif kind == "same result":
            text = f"same result, history residuals moved by <= {delta:.2e} relative"
        elif kind == "differs" and not (a["error"] or b["error"]):
            text = f"differs: {_changes(a, b)}"
        print(f"{a['workload']} seed {a['seed']} op {a['index']} {a['label']}: {text}")
        counts.setdefault(a["workload"], dict.fromkeys(VERDICTS, 0))[kind] += 1
        digits = 0.0 if kind == "same result" else delta or 0.0
        worst[a["workload"]] = max(worst.get(a["workload"], 0.0), digits)
    for name, c in counts.items():
        print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in c.items())
              + f", max |delta digits| {worst[name]:.2e}")
    return all(c["differs"] == 0 for c in counts.values())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # subprocess mode
    opts = p.parse_args(argv)
    if opts.dump:
        with open(opts.dump, "wb") as fh:
            pickle.dump(run_tree(opts.parent.resolve()), fh)
        return 0
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for tree in (opts.parent, opts.change):
            if not (tree / "src" / "marktop").is_dir() or not (tree / "perfbench").is_dir():
                p.error(f"{tree} holds no src/marktop and perfbench/")
            dump = Path(tmp) / "records.pkl"
            # the child runs the first tree it is given
            subprocess.run([sys.executable, __file__, str(tree), str(tree), "--dump", str(dump)],
                           check=True)
            with open(dump, "rb") as fh:
                records.append(pickle.load(fh))
    return 0 if compare(*records) else 1


if __name__ == "__main__":
    sys.exit(main())

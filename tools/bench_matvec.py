"""Time the Toeplitz-like matrix-vector product by size, tagged and untagged.

    python3 tools/bench_matvec.py [--parent DIR] [--max-n N] [--out FILE]

For n = 2^10, 2^11, ... up to --max-n (default 2^17) it times
``tlalgebra.matvec`` with one random right-hand side on two matrices: a
tagged symmetric Toeplitz matrix (``from_toeplitz``) and an untagged one
with random generators of width 8.  Each figure is the median of 5 repeats,
where one repeat is the mean time of as many calls as last about 0.1 s; the
matrix's cached spectra are built by one call before the repeats, as in
every repeated use of one matrix.

Each checkout runs in its own interpreter with OpenBLAS, OpenMP and MKL
pinned to one thread, and imports marktop from its own ``src/``.  This
tool's checkout gives the ``change_ms`` column; with --parent, the checkout
in DIR (a ``git worktree`` or clone of the parent commit, say) gives
``parent_ms``.  The file also records the host, its core count, the thread
settings and each checkout's commit (``-dirty`` with uncommitted changes).
The default output is BENCH_matvec.json at the root of this tool's checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
REPEATS = 5
WIDTH = 8          # generator width of the untagged matrix
REPEAT_S = 0.1     # the length of one repeat


def _child(tree: str, max_n: int) -> None:
    """Print one JSON list of timings for the checkout at ``tree``."""
    sys.path.insert(0, str(Path(tree) / "src"))
    import numpy as np
    from marktop import tlalgebra as tl

    rng = np.random.default_rng(0)
    rows, n = [], 1024
    while n <= max_n:
        col = rng.uniform(-1.0, 1.0, n)
        col[0] = n  # diagonally dominant, so SPD
        x = rng.standard_normal(n)
        cases = {"tagged": tl.from_toeplitz(col),
                 "untagged": tl.TLMatrix(n, rng.standard_normal((n, WIDTH)),
                                         rng.standard_normal((n, WIDTH)))}
        for kind, a in cases.items():
            start = time.perf_counter()
            tl.matvec(a, x)
            calls = max(1, int(REPEAT_S / (time.perf_counter() - start)))
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                for _ in range(calls):
                    tl.matvec(a, x)
                times.append((time.perf_counter() - start) / calls)
            rows.append({"n": n, "kind": kind, "width": a.width,
                         "ms": 1e3 * statistics.median(times)})
        n *= 2
    print(json.dumps(rows))


def _commit(tree: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _run(tree: Path, max_n: int) -> list:
    out = subprocess.run([sys.executable, __file__, "--child", str(tree), "--max-n", str(max_n)],
                         env={**os.environ, **THREADS}, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--max-n", type=int, default=2 ** 17)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_matvec.json")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child, args.max_n)
        return
    import numpy as np

    columns = {"change": ROOT} if args.parent is None else {"parent": args.parent, "change": ROOT}
    timings = {name: _run(tree, args.max_n) for name, tree in columns.items()}
    rows = [{k: v for k, v in row.items() if k != "ms"} for row in timings["change"]]
    for name, table in timings.items():
        for row, timed in zip(rows, table, strict=True):
            row[f"{name}_ms"] = timed["ms"]
    report = {
        "max_n": args.max_n,
        "what": f"tlalgebra.matvec, one right-hand side; median of {REPEATS} repeats "
                f"of about {REPEAT_S} s each; untagged generator width {WIDTH}",
        "host": {"cpu": _cpu_model(), "machine": platform.machine(),
                 "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "threads": THREADS,
        "commits": {name: _commit(tree) for name, tree in columns.items()},
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for row in rows:
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in row.items()))


if __name__ == "__main__":
    main()

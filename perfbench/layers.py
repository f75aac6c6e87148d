"""Spans around the public functions of each marktop layer, installed from
the benchmark at run time, and the per-layer metrics computed from them.

A wrapper replaces a function on every module attribute through which the
program looks it up: ``matfun`` and ``experiments`` import
``fit_interpolant`` and ``optimal_nodes`` by name, ``approx`` imports
``ellipk`` and ``jacobi_sn`` by name, and ``tlalgebra`` calls ``solve``,
``to_dense`` and ``matvec`` through its own globals.  Spans are kept in
memory, each pointing at its parent span, and written out at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import warnings

# per-layer metrics in the order they are reported
METRICS = (
    "elliptic.calls", "elliptic.self_s",
    "approx.optimal_nodes.calls", "approx.optimal_nodes.self_s",
    "approx.blaschke_eta.self_s",
    "markov.eval.calls", "markov.eval.self_s",
    "interp.fit.calls", "interp.fit.pfd.self_s", "interp.fit.barycentric.self_s",
    "interp.fit.thiele.self_s", "interp.fit.failed", "interp.fit.warnings",
    "tlalgebra.matvec.calls", "tlalgebra.matvec.cols", "tlalgebra.matvec.self_s",
    "tlalgebra.norm_est.calls", "tlalgebra.norm_est.matvecs",
    "tlalgebra.norm_est.self_s",
    "tlalgebra.solve.levinson.calls", "tlalgebra.solve.levinson.self_s",
    "tlalgebra.solve.dense.calls", "tlalgebra.solve.dense.self_s",
    "tlalgebra.to_dense.calls", "tlalgebra.to_dense.self_s",
    "tlalgebra.to_dense.n.max",
    "tlalgebra.invert.calls", "tlalgebra.invert.self_s",
    "tlalgebra.multiply.calls", "tlalgebra.multiply.self_s",
    "tlalgebra.compress.calls", "tlalgebra.compress.self_s",
    "tlalgebra.compress.width_in.max", "tlalgebra.compress.width_out.max",
    "tlalgebra.peak_width",
    "matfun.eval_rational.calls", "matfun.eval_rational.self_s",
    "matfun.residual_sqrt.calls", "matfun.residual_sqrt.self_s",
    "matfun.sqrt_db_newton.calls", "matfun.sqrt_db_newton.steps",
    "matfun.sqrt_db_newton.self_s",
    "matfun.auto_degree.degrees_tried", "matfun.auto_degree.degrees_accepted",
    "matfun.self_s",
    "experiments.scalar_scan.self_s", "experiments.scalar_scan.rows_rejected",
    "trace.batch_s",
)

_SOLVES = ("tlalgebra.solve.levinson", "tlalgebra.solve.dense")


class Tracer:
    """Records spans while ``active``; a disabled wrapper only forwards."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.spans = []      # [name, start, end, parent index, attrs]
        self.stack = []
        self.active = False

    def wrap(self, name, fn, after=None, record_warnings=False):
        """``name`` is a string or a function of the call's arguments;
        ``after(attrs, args, kwargs, result)`` adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            rec = [label, time.perf_counter(), 0.0,
                   self.stack[-1] if self.stack else -1, {}]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                if record_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                    rec[4]["warnings"] = sum(issubclass(w.category, UserWarning)
                                             for w in caught)
                else:
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(rec[4], args, kwargs, out)
                return out
            except self.error_type:
                rec[4]["failed"] = 1
                raise
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


def _install(modules, attrs, wrapper):
    for mod in modules:
        if hasattr(mod, attrs):
            setattr(mod, attrs, wrapper)


def install(tracer: Tracer, mt) -> None:
    """Wrap the public functions of each layer of the package ``mt``."""
    from marktop import approx, experiments, interp, markov, matfun
    from marktop import tlalgebra as tl

    def wrap_all(attr, name, owner, users=(), **kw):
        w = tracer.wrap(name, getattr(owner, attr), **kw)
        _install((owner, *users), attr, w)

    for attr in ("ellipk", "jacobi_sn"):
        wrap_all(attr, f"elliptic.{attr}", approx)
    wrap_all("optimal_nodes", "approx.optimal_nodes", approx,
             (matfun, experiments, mt))
    # the eta search of optimal_nodes calls the Blaschke kernel directly
    eta = "_eta_from_u" if hasattr(approx, "_eta_from_u") else "blaschke_eta"
    wrap_all(eta, "approx.blaschke_eta", approx)
    wrap_all("eval_markov", "markov.eval", markov, (mt,))

    def fit_name(args, kwargs):
        rep = kwargs.get("representation", args[2] if len(args) > 2 else "pfd")
        return f"interp.fit.{rep}"

    wrap_all("fit_interpolant", fit_name, interp, (matfun, experiments, mt),
             record_warnings=True)

    def cols(attrs, args, kwargs, out):
        x = args[1]
        attrs["cols"] = args[0].width * (x.shape[1] if getattr(x, "ndim", 1) == 2 else 1)

    for attr in ("matvec", "matvec_t"):
        wrap_all(attr, "tlalgebra.matvec", tl, after=cols)
    wrap_all("norm_est", "tlalgebra.norm_est", tl)

    def solve_name(args, kwargs):
        tagged = getattr(args[0], "toeplitz", None) is not None
        return "tlalgebra.solve.levinson" if tagged else "tlalgebra.solve.dense"

    for attr in ("solve", "solve_t"):
        wrap_all(attr, solve_name, tl)
    wrap_all("to_dense", "tlalgebra.to_dense", tl,
             after=lambda attrs, args, kw, out: attrs.update(n=args[0].n))
    wrap_all("invert", "tlalgebra.invert", tl)
    wrap_all("multiply", "tlalgebra.multiply", tl)
    wrap_all("compress", "tlalgebra.compress", tl,
             after=lambda attrs, args, kw, out: attrs.update(
                 w_in=args[0].width, w_out=out.width))

    wrap_all("eval_rational_at_matrix", "matfun.eval_rational", matfun, (mt,))
    wrap_all("residual_sqrt", "matfun.residual_sqrt", matfun, (mt,))
    wrap_all("sqrt_db_newton", "matfun.sqrt_db_newton", matfun, (mt,),
             after=lambda attrs, args, kw, out: attrs.update(
                 steps=len(out.residuals)))

    def degrees(attrs, args, kwargs, out):
        attrs["tried"] = len(out.history)
        attrs["accepted"] = sum(bool(row[3]) for row in out.history)

    wrap_all("auto_degree", "matfun.auto_degree", matfun, (mt,), after=degrees)
    wrap_all("log_via_scaling", "matfun.log_via_scaling", matfun, (mt,))
    wrap_all("frac_power", "matfun.frac_power", matfun, (mt,))
    wrap_all("scalar_scan", "experiments.scalar_scan", experiments,
             after=lambda attrs, args, kw, out: attrs.update(
                 rejected=sum(not row.accepted for row in out)))


def layer_metrics(spans, peak_width: int, batch_s: float) -> dict:
    """Per-layer metrics of one round's spans (indices local to the list).

    Self time is a span's duration minus the durations of its children,
    which nest inside it since one thread runs the round.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(METRICS, 0)
    out["tlalgebra.peak_width"] = peak_width
    out["trace.batch_s"] = batch_s
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        self_s = end - start - child[i]
        pname = spans[parent][0] if parent >= 0 else ""
        layer = name.split(".")[0]
        if layer == "matfun":
            out["matfun.self_s"] += self_s
        if layer == "elliptic":
            out["elliptic.calls"] += 1
            out["elliptic.self_s"] += self_s
        elif name.startswith("interp.fit."):
            out["interp.fit.calls"] += 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0) + self_s
            out["interp.fit.failed"] += attrs.get("failed", 0)
            out["interp.fit.warnings"] += attrs.get("warnings", 0)
        elif name in _SOLVES:
            # solve_t on a symmetric matrix delegates to solve: one solve
            if pname not in _SOLVES:
                out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        elif name == "approx.blaschke_eta":
            out["approx.blaschke_eta.self_s"] += self_s
        elif name == "matfun.auto_degree":
            out["matfun.auto_degree.degrees_tried"] += attrs.get("tried", 0)
            out["matfun.auto_degree.degrees_accepted"] += attrs.get("accepted", 0)
        elif name in ("matfun.log_via_scaling", "matfun.frac_power"):
            pass
        else:
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += self_s
            if name == "tlalgebra.matvec":
                out["tlalgebra.matvec.cols"] += attrs.get("cols", 0)
                if pname == "tlalgebra.norm_est":
                    out["tlalgebra.norm_est.matvecs"] += 1
            elif name == "tlalgebra.to_dense":
                out["tlalgebra.to_dense.n.max"] = max(
                    out["tlalgebra.to_dense.n.max"], attrs.get("n", 0))
            elif name == "tlalgebra.compress":
                for key, attr in (("width_in", "w_in"), ("width_out", "w_out")):
                    metric = f"tlalgebra.compress.{key}.max"
                    out[metric] = max(out[metric], attrs.get(attr, 0))
            elif name == "matfun.sqrt_db_newton":
                out["matfun.sqrt_db_newton.steps"] += attrs.get("steps", 0)
            elif name == "experiments.scalar_scan":
                out["experiments.scalar_scan.rows_rejected"] += attrs.get("rejected", 0)
    return out


def median_metrics(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in METRICS}

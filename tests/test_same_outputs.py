"""tools/same_outputs.py: the verdicts and the report, on synthetic records."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(m=3, accepted=(1, 1, 0), g=1.0, digits=8.0, error=None, to_dense=5, first=1,
            residual=1e-9):
    hist = np.array([[first + k, residual, 1e-8, a] for k, a in enumerate(accepted)],
                    dtype=float)
    out = {"m": np.array(m), "history": hist, "ell": np.array(1),
           "to_dense": np.array(to_dense), "G": np.full((4, 2), g), "B": np.ones((4, 2))}
    return {"error": error, "out": None if error else out, "digits": digits}


@pytest.mark.parametrize("b, want", [
    pytest.param(_record(to_dense=7), ("bitwise", 0.0), id="work-count-aside"),
    pytest.param(_record(accepted=(1, 0), first=2), ("history tail", 0.0), id="history-tail"),
    pytest.param(_record(accepted=(1, 1)), ("differs", None), id="history-head"),
    pytest.param(_record(accepted=(1, 0), first=2, g=2.0), ("differs", None),
                 id="history-tail-other-output"),
    pytest.param(_record(residual=2e-9), ("same result", 1.0), id="history-residuals"),
    pytest.param(_record(residual=2e-9, g=2.0), ("same flags", 0.0),
                 id="history-residuals-other-output"),
    pytest.param(_record(g=1.0 + 1e-15, digits=8.25), ("same flags", 0.25), id="digits"),
    pytest.param(_record(m=2), ("differs", None), id="degree"),
    pytest.param(_record(accepted=(1, 0, 0)), ("differs", None), id="accept-flag"),
    pytest.param(_record(error="SingularMatrix: x"), ("differs", None), id="one-raises"),
])
def test_verdicts(tool, b, want):
    assert tool.verdict(_record(), b) == want


def test_same_error_is_agreement(tool):
    a = _record(error="NoConvergence: x")
    assert tool.verdict(a, dict(a)) == ("same error", None)


def test_compare_prints_each_operation_and_a_summary(tool, capsys):
    def records(*recs):
        return [dict(r, workload="dense", seed=1, index=i, label=f"op{i}")
                for i, r in enumerate(recs)]

    parent = records(_record(), _record(), _record(error="NoConvergence: x"), _record(),
                     _record())
    change = records(_record(to_dense=7), _record(g=2.0, digits=8.5),
                     _record(error="NoConvergence: x"), _record(accepted=(0,), first=3),
                     _record(residual=1.5e-9))
    assert tool.compare(parent, change)
    assert capsys.readouterr().out.splitlines() == [
        "dense seed 1 op 0 op0: bitwise",
        "dense seed 1 op 1 op1: same m/ell/accept flags, |delta digits| = 5.00e-01",
        "dense seed 1 op 2 op2: same error",
        "dense seed 1 op 3 op3: bitwise, history from m = 3",
        "dense seed 1 op 4 op4: same result, history residuals moved by <= 5.00e-01 relative",
        "dense: bitwise 1, history tail 1, same result 1, same flags 1, same error 1, "
        "differs 0, max |delta digits| 5.00e-01"]
    assert not tool.compare(parent[:2], records(_record(error="SingularMatrix: x"),
                                                _record(m=2, digits=6.5)))
    assert capsys.readouterr().out.splitlines() == [
        "dense seed 1 op 0 op0: differs",
        "dense seed 1 op 1 op1: differs: m 3 -> 2, ell 1 -> 1, digits 8.00 -> 6.50",
        "dense: bitwise 0, history tail 0, same result 0, same flags 0, same error 0, "
        "differs 2, max |delta digits| 0.00e+00"]
    assert not tool.compare(parent, records(_record(), _record(m=2), _record()))
    assert not tool.compare(parent, parent[:2])

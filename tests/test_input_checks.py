"""Each input check raises its typed error from the MarktopError hierarchy."""

import numpy as np
import pytest

from marktop import DimensionError, InvalidInterval, MatArg, inv_sqrt_spec
from marktop.experiments import (ORACLE_MAX_N, ExperimentConfig, dense_f_oracle,
                                 laplacian1d)
from marktop.interp import MAX_PFD_DEGREE, loewner_pfd
from marktop.tlalgebra import read_toeplitz


def _short_file(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n4.0\n1.0\n0.0\n1.0\n")  # 4 entries for 2n - 1 = 5
    return read_toeplitz(path)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda tmp: MatArg("dense", np.eye(2), 2.0, 1.0),
                 DimensionError, "need 0 < c <= d", id="matarg-c-above-d"),
    pytest.param(_short_file, DimensionError, "expected 5 entries, got 4",
                 id="read-toeplitz-entry-count"),
    pytest.param(lambda tmp: loewner_pfd([(1.0, 1.0), (1.0, 1.0)], 1),
                 InvalidInterval, "distinct", id="duplicate-nodes"),
    pytest.param(lambda tmp: loewner_pfd([], MAX_PFD_DEGREE + 1),
                 InvalidInterval, f"m must be <= {MAX_PFD_DEGREE}", id="pfd-degree-cap"),
    pytest.param(lambda tmp: ExperimentConfig(inv_sqrt_spec(), laplacian1d(4), "v"),
                 DimensionError, "unknown case 'v'", id="unknown-case"),
    pytest.param(lambda tmp: dense_f_oracle(
                     inv_sqrt_spec(), np.broadcast_to(1.0, (ORACLE_MAX_N + 1,) * 2)),
                 DimensionError, f"capped at n = {ORACLE_MAX_N}", id="oracle-size-cap"),
])
def test_input_check_raises_typed_error(call, error, match, tmp_path):
    with pytest.raises(error, match=match):
        call(tmp_path)

"""Each input check raises its typed error from the MarktopError hierarchy."""

import numpy as np
import pytest

from marktop import (Barycentric, DimensionError, DomainError, InvalidInterval,
                     MatArg, ThieleCF, TLMatrix, auto_degree, build_geometry,
                     check_hankel_definiteness, dense_arg, diag_arg,
                     eval_rational_at_matrix, frac_power, from_toeplitz,
                     inv_sqrt_spec, optimal_nodes, tl_arg)
from marktop.experiments import (ORACLE_MAX_N, ExperimentConfig, dense_f_oracle,
                                 laplacian1d)
from marktop.interp import MAX_PFD_DEGREE, barycentric_fit, loewner_pfd
from marktop.matfun import degree_sweep
from marktop.tlalgebra import add as tl_add
from marktop.tlalgebra import invert, read_toeplitz


def _short_file(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n4.0\n1.0\n0.0\n1.0\n")  # 4 entries for 2n - 1 = 5
    return read_toeplitz(path)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda tmp: MatArg(np.eye(2), 2.0, 1.0),
                 DimensionError, "need 0 < c <= d", id="matarg-c-above-d"),
    pytest.param(_short_file, DimensionError, "expected 5 entries, got 4",
                 id="read-toeplitz-entry-count"),
    pytest.param(lambda tmp: loewner_pfd([(1.0, 1.0), (1.0, 1.0)]),
                 InvalidInterval, "distinct", id="duplicate-nodes"),
    pytest.param(lambda tmp: loewner_pfd([(k + 1.0, 1.0 / (k + 1.0))
                                          for k in range(2 * (MAX_PFD_DEGREE + 1))]),
                 InvalidInterval, f"m must be <= {MAX_PFD_DEGREE}", id="pfd-degree-cap"),
    pytest.param(lambda tmp: barycentric_fit([]),
                 InvalidInterval, "need 2m >= 2 samples, got 0", id="fit-no-samples"),
    pytest.param(lambda tmp: ExperimentConfig(inv_sqrt_spec(), laplacian1d(4), "v"),
                 DimensionError, "unknown case 'v'", id="unknown-case"),
    pytest.param(lambda tmp: dense_f_oracle(
                     inv_sqrt_spec(), np.broadcast_to(1.0, (ORACLE_MAX_N + 1,) * 2)),
                 DimensionError, f"capped at n = {ORACLE_MAX_N}", id="oracle-size-cap"),
    pytest.param(lambda tmp: dense_arg(np.ones(3), 1.0, 3.0),
                 DimensionError, r"square matrix, got shape \(3,\)", id="dense-arg-1d"),
    pytest.param(lambda tmp: dense_arg(np.ones((2, 3)), 1.0, 3.0),
                 DimensionError, r"got shape \(2, 3\)", id="dense-arg-not-square"),
    pytest.param(lambda tmp: dense_arg(np.ones((0, 0)), 1.0, 3.0),
                 DimensionError, "need a nonempty square", id="dense-arg-empty"),
    pytest.param(lambda tmp: dense_arg([[2.0, np.nan], [np.nan, 2.0]], 1.0, 3.0),
                 DomainError, r"entry \[0, 1\] is nan, entries must be finite", id="dense-arg-nan"),
    pytest.param(lambda tmp: diag_arg([]),
                 DimensionError, "nonempty eigenvalue vector", id="diag-arg-empty"),
    pytest.param(lambda tmp: diag_arg(np.eye(2), 1.0, 3.0),
                 DimensionError, r"got shape \(2, 2\)", id="diag-arg-2d"),
    pytest.param(lambda tmp: diag_arg([1.0, np.inf]),
                 DomainError, r"vector entry \[1\] is inf", id="diag-arg-inf"),
    pytest.param(lambda tmp: frac_power(dense_arg(np.eye(2), 1.0, 1.0), np.nan),
                 InvalidInterval, "finite, got nan", id="frac-power-nan"),
    pytest.param(lambda tmp: frac_power(dense_arg(np.eye(2), 1.0, 1.0), np.inf),
                 InvalidInterval, "finite, got inf", id="frac-power-inf"),
    pytest.param(lambda tmp: frac_power(dense_arg(np.eye(2), 1.0, 1.0), -np.inf),
                 InvalidInterval, "finite, got -inf", id="frac-power-minus-inf"),
    pytest.param(lambda tmp: invert(TLMatrix(3, np.array([[1.0], [np.nan], [0.0]]),
                                             np.ones((3, 1)))),
                 DomainError, "nonfinite", id="invert-untagged-nan"),
    pytest.param(lambda tmp: MatArg([1.0, 2.0], 1.0, 2.0),
                 DimensionError, "TLMatrix or a 1-D or 2-D ndarray, got list",
                 id="matarg-list"),
    pytest.param(lambda tmp: MatArg(np.ones((2, 3)), 1.0, 2.0),
                 DimensionError, r"square matrix, got shape \(2, 3\)", id="matarg-not-square"),
    pytest.param(lambda tmp: frac_power(diag_arg(np.array([1.0, 2.0])), 1e6),
                 InvalidInterval, "beyond the float range", id="frac-power-overflow"),
    pytest.param(lambda tmp: frac_power(diag_arg(np.array([0.5, 0.9])), 1e300),
                 InvalidInterval, "beyond the float range", id="frac-power-huge-integral"),
    pytest.param(lambda tmp: MatArg(np.ones((2, 2, 2)), 1.0, 2.0),
                 DimensionError, r"got ndarray\(2, 2, 2\)", id="matarg-3d"),
    pytest.param(lambda tmp: tl_arg(np.eye(3), 1.0, 3.0),
                 DimensionError, "needs a TLMatrix, got ndarray", id="tl-arg-ndarray"),
    pytest.param(lambda tmp: dense_arg(from_toeplitz([2.0, 1.0]), 1.0, 3.0),
                 DimensionError, "square matrix of numbers, got TLMatrix",
                 id="dense-arg-tlmatrix"),
    pytest.param(lambda tmp: from_toeplitz(np.eye(3)),
                 DimensionError, r"first column, got shape \(3, 3\)", id="from-toeplitz-2d"),
    pytest.param(lambda tmp: from_toeplitz([]),
                 DimensionError, r"nonempty first column, got shape \(0,\)",
                 id="from-toeplitz-empty"),
    pytest.param(lambda tmp: build_geometry(-1.0, np.inf, 1.0, 3.0),
                 InvalidInterval, "need alpha < beta < c < d", id="geometry-beta-inf"),
    pytest.param(lambda tmp: build_geometry(-np.inf, 0.0, np.inf, 3.0),
                 InvalidInterval, "need alpha < beta < c < d", id="geometry-c-inf"),
    pytest.param(lambda tmp: build_geometry(-np.inf, np.nan, 1.0, 3.0),
                 InvalidInterval, "need alpha < beta < c < d", id="geometry-beta-nan"),
    pytest.param(lambda tmp: optimal_nodes(build_geometry(-np.inf, 0.0, 1.0, 3.0), 1.5),
                 InvalidInterval, "integer >= 1, got 1.5", id="optimal-nodes-non-integer"),
    pytest.param(lambda tmp: auto_degree(inv_sqrt_spec(), diag_arg([1.0, 3.0]),
                                         build_geometry(-np.inf, 0.0, 1.0, 3.0), m_max=2.5),
                 InvalidInterval, "integers, got m_max = 2.5", id="auto-degree-non-integer"),
    pytest.param(lambda tmp: next(degree_sweep(
                     inv_sqrt_spec(), diag_arg([1.0, 3.0]),
                     build_geometry(-np.inf, 0.0, 1.0, 3.0), "pfd", [1, 1.5], None)),
                 InvalidInterval, r"integers, got \[1, 1.5\]", id="degree-sweep-non-integer"),
    pytest.param(lambda tmp: check_hankel_definiteness(inv_sqrt_spec(), 2.0, -1),
                 DimensionError, "must be nonnegative, got n = -1", id="hankel-negative-n"),
    pytest.param(lambda tmp: tl_add(from_toeplitz([2.0, 1.0]), from_toeplitz([2.0])),
                 DimensionError, "size mismatch 2 vs 1", id="tl-add-size-mismatch"),
    pytest.param(lambda tmp: eval_rational_at_matrix(
                     ThieleCF((2.0,), (0.5,), True), dense_arg(np.eye(2), 1.0, 3.0)),
                 DimensionError, "two or more nodes", id="thiele-one-node"),
    pytest.param(lambda tmp: eval_rational_at_matrix(
                     ThieleCF((2.0, 3.0), (0.5,), True), dense_arg(np.eye(2), 1.0, 3.0)),
                 DimensionError, "two or more nodes", id="thiele-one-param"),
    pytest.param(lambda tmp: eval_rational_at_matrix(
                     Barycentric((2.0,), (1.0,), (0.5,)), dense_arg(np.eye(2), 1.0, 3.0)),
                 DimensionError, "two or more nodes", id="barycentric-one-node"),
])
def test_input_check_raises_typed_error(call, error, match, tmp_path):
    with pytest.raises(error, match=match):
        call(tmp_path)

"""Command line interface and experiment drivers."""

import csv
import warnings

import numpy as np
import pytest

from marktop import cli
from marktop import tlalgebra as tl
from marktop.approx import apriori_bound, build_geometry
from marktop.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from marktop.errors import DimensionError
from marktop.experiments import (CSV_HEADER, gen_random_spd_toeplitz, laplacian1d,
                                 run_experiment)
from marktop.markov import inv_sqrt_spec
from marktop.tlalgebra import read_toeplitz, write_toeplitz


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------- nodes

def test_nodes_ok(capsys):
    rc = main(["nodes", "--alpha=-inf", "--beta", "0", "--c", "0.5",
               "--d", "1", "--m", "4"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "nodes:" in out and "apriori" in out and "eta" in out


def test_nodes_without_apriori_bound(capsys):
    # at [1, 1e12] 2 rho^2 >= 1: m = 1 has no a priori bound
    rc = main(["nodes", "--alpha=-inf", "--beta", "0", "--c", "1",
               "--d", "1e12", "--m", "1"])
    assert rc == EXIT_OK
    assert "apriori = invalid" in capsys.readouterr().out


def test_nodes_bad_interval_exits_2(capsys):
    rc = main(["nodes", "--alpha=-inf", "--beta", "0", "--c", "2",
               "--d", "1", "--m", "4"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("d, rc", [("1.0005", EXIT_OK),
                                   ("1.0000000000000002", EXIT_CONFIG)])
def test_nodes_narrow_interval(d, rc, capsys):
    # 1 + 2^-52 is too narrow for double precision: DegenerateCondenser
    assert main(["nodes", "--alpha=-inf", "--beta", "0", "--c", "1",
                 "--d", d, "--m", "2"]) == rc


# ------------------------------------------------------------------------ gen

def test_gen_deterministic_and_spectrum(tmp_path, capsys):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    args = ["gen", "--n", "64", "--lmin", "1.0", "--lmax", "100.0",
            "--seed", "7", "--output"]
    assert main(args + [str(p1)]) == EXIT_OK
    assert main(args + [str(p2)]) == EXIT_OK
    assert p1.read_text() == p2.read_text()  # bitwise reproducible
    ev = np.linalg.eigvalsh(tl.to_dense(read_toeplitz(p1)))
    assert ev[0] == pytest.approx(1.0, rel=0.01)
    assert ev[-1] == pytest.approx(100.0, rel=0.01)


def test_gen_random_spd_toeplitz_validates():
    with pytest.raises(DimensionError):
        gen_random_spd_toeplitz(16, 5.0, 1.0, 0)


def test_gen_random_spd_toeplitz_rejects_n_below_2():
    # n = 1 has one eigenvalue: the affine map onto [lmin, lmax] divides by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DimensionError, match="got n = 1,"):
            gen_random_spd_toeplitz(1, 1.0, 2.0, 0)


@pytest.mark.parametrize("command", [["gen", "--lmin", "1", "--lmax", "2"],
                                     ["matfun", "--matrix", "random"]])
def test_n_1_exits_2(command, tmp_path, capsys):
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([*command, "--n", "1", "--output", str(out)])
    assert rc == EXIT_CONFIG
    assert "got n = 1," in capsys.readouterr().err
    assert not out.exists()


def test_experiment_source_must_be_tagged():
    nonsymmetric = tl.multiply(tl.from_toeplitz([4.0, 1.0, 0.0]),
                               tl.from_toeplitz([4.0, 0.5, 0.0]))
    with pytest.raises(DimensionError, match="symmetric Toeplitz"):
        run_experiment(inv_sqrt_spec(), nonsymmetric, "i")


def test_laplacian1d_entries():
    want = np.array([2.0, -1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(laplacian1d(5).toeplitz, want)


# ----------------------------------------------------------------------- scan

def test_scan_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--spec", "inv_sqrt", "--c", "0.5", "--d", "1",
               "--m-min", "1", "--m-max", "6", "--reps", "pfd",
               "--output", str(out)])
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 7  # header + one row per m
    errs = [float(r[3]) for r in rows[1:]]
    assert min(errs) <= 1e-10  # fast convergence on an easy interval


@pytest.mark.parametrize("command, error", [
    (["scan", "--c", "0.5", "--d", "1", "--m-max", "3", "--reps", "pfd,foo"],
     "unknown representation 'foo'"),
    (["matfun", "--n", "16", "--m-max", "3", "--reps", "pfd,bary"],
     "unknown representation 'bary'"),
    (["scan", "--c", "0.5", "--d", "1", "--m-min", "0", "--m-max", "3"],
     "degrees must be >= 1, got range(0, 4)"),
    (["matfun", "--n", "16", "--m-max", "0"], "degrees must be >= 1, got range(1, 1)"),
], ids=["scan-unknown-rep", "matfun-unknown-rep", "scan-m-min-0", "matfun-m-max-0"])
def test_bad_representation_or_degree_range_exits_2(command, error, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*command, "--output", str(out)]) == EXIT_CONFIG
    assert f"configuration error: {error}" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------- matfun

def run_matfun(tmp_path, name, extra):
    out = tmp_path / name
    rc = main(["matfun", "--spec", "log", "--matrix", "random", "--n", "48",
               "--lmin", "1.0", "--lmax", "50.0", "--seed", "3",
               "--reps", "pfd", "--m-max", "8", "--output", str(out)] + extra)
    assert rc == EXIT_OK
    return read_csv(out)


def test_matfun_csv_schema_and_invariant(tmp_path, capsys):
    rows = run_matfun(tmp_path, "m.csv", ["--case", "iii"])
    assert rows[0] == CSV_HEADER
    assert len(rows) == 9
    for r in rows[1:]:
        assert r[0] == "iii" and r[1] == "pfd"
        resid, accepted = float(r[5]), r[6] == "true"
        apr = float(r[4])
        if accepted and np.isfinite(apr):
            # the stopping rule accepts only below five times the bound
            assert resid < 5.0 * apr * (1.0 + 1e-9)
        if not accepted:
            assert resid >= 5.0 * apr or not np.isfinite(resid)


def test_matfun_accepted_error_below_apriori(tmp_path, capsys):
    rows = run_matfun(tmp_path, "m2.csv", ["--case", "i"])
    seen_accept = False
    for r in rows[1:]:
        rel_err, apr, accepted = float(r[3]), float(r[4]), r[6] == "true"
        if accepted and np.isfinite(apr):
            seen_accept = True
            assert rel_err <= apr + 1e-12
    assert seen_accept


def test_matfun_deterministic_except_wall(tmp_path, capsys):
    rows1 = run_matfun(tmp_path, "d1.csv", ["--case", "iv"])
    rows2 = run_matfun(tmp_path, "d2.csv", ["--case", "iv"])
    assert [r[:8] for r in rows1] == [r[:8] for r in rows2]


def test_matfun_no_oracle_nan(tmp_path, capsys):
    rows = run_matfun(tmp_path, "n.csv", ["--case", "iii", "--no-oracle"])
    assert all(r[3] == "nan" for r in rows[1:])


def test_matfun_file_matrix(tmp_path, capsys):
    path = tmp_path / "t.txt"
    assert main(["gen", "--n", "32", "--lmin", "1.0", "--lmax", "20.0",
                 "--seed", "5", "--output", str(path)]) == EXIT_OK
    out = tmp_path / "f.csv"
    rc = main(["matfun", "--spec", "inv_sqrt", "--matrix", "file", "--path",
               str(path), "--case", "i", "--reps", "pfd", "--m-max", "6",
               "--output", str(out)])
    assert rc == EXIT_OK
    assert len(read_csv(out)) == 7


def test_matfun_nonfinite_file_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.txt"
    path.write_text("4\n4.0\n1.0\n0.0\n0.0\ninf\n0.0\n0.0\n")
    rc = main(["matfun", "--matrix", "file", "--path", str(path)])
    assert rc == EXIT_CONFIG
    assert "first row entry 1 is inf" in capsys.readouterr().err


def test_matfun_nonsymmetric_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nonsym.txt"
    path.write_text("4\n4.0\n1.0\n0.0\n0.0\n1.0\n0.5\n0.0\n")
    out = tmp_path / "nonsym.csv"
    rc = main(["matfun", "--matrix", "file", "--path", str(path),
               "--output", str(out)])
    assert rc == EXIT_CONFIG
    assert "first row entry 2 is 0.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("", "an empty file"),
    ("2.5\n4.0\n1.0\n1.0\n", "got '2.5'"),
    ("2\n4.0\nx\n1.0\n", "first column entry 1 is 'x'"),
], ids=["empty", "size-not-integer", "entry-not-number"])
def test_matfun_malformed_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    out = tmp_path / "bad.csv"
    rc = main(["matfun", "--matrix", "file", "--path", str(path),
               "--output", str(out)])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [0, 1])
def test_matfun_laplacian_too_small_exits_2(tmp_path, capsys, n):
    out = tmp_path / "lap.csv"
    rc = main(["matfun", "--matrix", "laplacian1d", "--n", str(n),
               "--output", str(out)])
    assert rc == EXIT_CONFIG
    assert f"need n >= 2, got n = {n}" in capsys.readouterr().err
    assert not out.exists()


def test_matfun_missing_path_exits_2(capsys):
    rc = main(["matfun", "--matrix", "file"])
    assert rc == EXIT_CONFIG


def test_matfun_singular_transposed_solve_exits_2(tmp_path, monkeypatch, capsys):
    """A singular system met by solve_t is a configuration error (exit 2),
    not a runtime failure (exit 3)."""
    path = tmp_path / "singular.txt"
    write_toeplitz(path, tl.from_toeplitz(np.ones(4)))  # rank one

    def transposed_solve(spec, source, case, reps, m_max, with_oracle):
        return tl.solve_t(source, np.ones(4))

    monkeypatch.setattr(cli.ex, "run_experiment", transposed_solve)
    rc = main(["matfun", "--matrix", "file", "--path", str(path)])
    assert rc == EXIT_CONFIG
    assert "Singular" in capsys.readouterr().err


def test_non_marktop_exception_exits_3(monkeypatch, capsys):
    def broken(spec, source, case, reps, m_max, with_oracle):
        raise ValueError("not a marktop error")

    monkeypatch.setattr(cli.ex, "run_experiment", broken)
    assert main(["matfun", "--n", "8"]) == EXIT_RUNTIME
    assert "runtime failure: not a marktop error" in capsys.readouterr().err


def test_power_spec_requires_gamma(capsys):
    rc = main(["scan", "--spec", "power", "--c", "0.5", "--d", "1"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("command", [
    ["scan", "--c", "0.5", "--d", "1"],
    ["matfun", "--matrix", "random", "--n", "16"],
])
def test_constant_spec_is_not_offered(command, capsys):
    # a constant has f(inf) != 0, so it is not a Markov function
    with pytest.raises(SystemExit) as exc:
        main([*command, "--spec", "constant"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'constant'" in capsys.readouterr().err


def test_matfun_laplacian_power_case_ii_loosened_bounds(tmp_path, capsys):
    out = tmp_path / "lap.csv"
    rc = main(["matfun", "--matrix", "laplacian1d", "--n", "64", "--spec",
               "power", "--gamma", "-0.5", "--case", "ii", "--reps", "pfd",
               "--m-max", "8", "--output", str(out)])
    assert rc == EXIT_OK
    rows = read_csv(out)[1:]
    assert [r[6] for r in rows] == ["true"] * 8
    ev = np.linalg.eigvalsh(tl.to_dense(laplacian1d(64)))
    # case ii runs on the loosened spectral interval [c/2, 2d]
    g = build_geometry(-np.inf, 0.0, ev[0] / 2.0, 2.0 * ev[-1])
    for r in rows:
        m, rel_err, apr = int(r[2]), float(r[3]), float(r[4])
        assert apr == pytest.approx(apriori_bound(g, m), rel=1e-6)
        assert rel_err <= apr

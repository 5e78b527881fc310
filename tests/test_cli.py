import csv
import json

import numpy as np
import pytest

from descentls.cli import main
from descentls.driver import read_trace_records
from descentls.linalg import load_matrix, load_vector, save_matrix, save_vector
from descentls.objectives import SmoothQuadratic

MICRO = ["--lambda", "1.0"]


@pytest.fixture
def micro_files(tmp_path):
    save_matrix(np.eye(2), tmp_path / "A.csv")
    save_vector(np.array([3.0, 0.5]), tmp_path / "b.csv")
    return tmp_path


def micro_args(files, out):
    # h-factor 2/L on the identity gives h = 2 exactly up to the estimate
    return ["--matrix", str(files / "A.csv"), "--rhs", str(files / "b.csv"),
            "--lambda", "1.0", "--h-factor", str(2.0 / 1.0010000000000001),
            "--out", str(out)]


def test_gen_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(["gen", "--seed", "5", "--out", str(out1)]) == 0
    assert main(["gen", "--seed", "5", "--out", str(out2)]) == 0
    assert np.array_equal(load_matrix(out1 / "A.csv"), load_matrix(out2 / "A.csv"))
    assert np.array_equal(load_vector(out1 / "b.csv"), load_vector(out2 / "b.csv"))
    assert np.count_nonzero(load_vector(out1 / "x_star.csv")) == 4


def test_run_micro_instance(tmp_path, micro_files):
    out = tmp_path / "run"
    assert main(["run", *micro_args(micro_files, out)]) == 0
    records = read_trace_records(out / "trace.csv")
    assert len(records) == 2
    assert records[0].m_k == 0 and records[0].eta_k == 1.0
    report = json.loads((out / "verify.json").read_text())
    assert report["stop_reason"] == "d_tol"
    assert all(v["passed"] for k, v in report.items()
               if isinstance(v, dict) and "passed" in v)


def test_run_seeded_instance(tmp_path):
    out = tmp_path / "seeded"
    assert main(["run", "--seed", "7", "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert all(v["passed"] for k, v in report.items()
               if isinstance(v, dict) and "passed" in v)


def test_run_plain_writes_plain_trace(tmp_path):
    out = tmp_path / "plain"
    assert main(["run-plain", "--seed", "7", "--out", str(out)]) == 0
    records = read_trace_records(out / "plain_trace.csv")
    assert records[0].m_k is None and records[0].eta_k is None


@pytest.mark.parametrize("flags, stop, note", [
    (["--residual-tol", "1e-3"], "residual_tol", "inconclusive: stopped by residual_tol"),
    (["--d-tol", "0"], "d_tol", None),
], ids=["residual-tol", "d-tol-0"])
def test_run_passes_cauchy_tail_on_correct_runs(tmp_path, capsys, flags, stop, note):
    # A residual_tol stop is inconclusive for cauchy_tail; a d_tol = 0 stop
    # leaves only a rounding-level residual, inside the check's slack.
    out = tmp_path / "run"
    assert main(["run", "--seed", "42", *flags, "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    report = json.loads((out / "verify.json").read_text())
    assert report["stop_reason"] == stop
    assert report["cauchy_tail"]["passed"] and report["cauchy_tail"].get("note") == note


def test_usage_errors(tmp_path, capsys, micro_files):
    assert main(["run", "--seed", "1", "--lambda", "-1", "--out", str(tmp_path)]) == 2
    assert main(["run", "--seed", "1", "--h-factor", "1.0", "--out", str(tmp_path)]) == 2
    # Non-finite parameters fail before any solve, so nothing is written.
    out = tmp_path / "nonfinite"
    for flag, value, message in [("--alpha", "inf", "alpha must be"), ("--d-tol", "nan", "d_tol must be"),
                                 ("--d-tol", "inf", "d_tol must be"),
                                 ("--residual-tol", "nan", "residual_tol must be"),
                                 ("--h-factor", "inf", "h = inf must be finite"),
                                 ("--zero-tol", "nan", "zero_tol must be"),
                                 ("--zero-tol", "inf", "zero_tol must be")]:
        capsys.readouterr()
        assert main(["run", "--seed", "1", flag, value, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
    for value in ("nan", "-1"):
        capsys.readouterr()
        assert main(["compare", "--seed", "1", "--compare-tol", value, "--out", str(out)]) == 2
        assert "error: --compare-tol must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--matrix", str(micro_files / "A.csv"), "--out", str(tmp_path)]) == 2
    assert main(["run", "--matrix", str(tmp_path / "missing.csv"),
                 "--rhs", str(micro_files / "b.csv"), "--out", str(tmp_path)]) == 2


def test_compare_micro(tmp_path, micro_files):
    out = tmp_path / "cmp"
    assert main(["compare", *micro_args(micro_files, out)]) == 0
    summary = json.loads((out / "compare.json").read_text())
    assert summary["ls_iters"] == 1
    assert summary["plain_iters"] == 21
    assert (out / "plain_trace.csv").exists() and (out / "search_trace.csv").exists()


def test_compare_deterministic(tmp_path):
    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert main(["compare", "--seed", "11", "--out", str(out)]) == 0
        outs.append((out / "compare.json").read_text())
    assert outs[0] == outs[1]


def test_compare_csv_plot_ready(tmp_path):
    out = tmp_path / "plot"
    assert main(["compare", "--seed", "3", "--out", str(out)]) == 0
    with open(out / "search_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"k", "phi_x"} <= rows[0].keys()
    assert float(rows[0]["phi_x"]) >= float(rows[-1]["phi_x"])


def test_verify_fresh_trace(tmp_path):
    out = tmp_path / "v"
    assert main(["run", "--seed", "9", "--out", str(out)]) == 0
    assert main(["verify", "--seed", "9", "--trace", str(out / "trace.csv"),
                 "--out", str(out)]) == 0


def _corrupt(path, row, edits):
    """Rewrite cells of one CSV row (row 0 is the header); edits: column -> f(old value)."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    for column, edit in edits.items():
        rows[row][column] = format(edit(float(rows[row][column])), ".17g")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


INTEGRITY = "FAIL trace_integrity: row k="


@pytest.mark.parametrize("row,edits,expected", [
    # phi_x mid-trace: creates an objective increase
    pytest.param(5, {1: lambda v: v + 1.0}, INTEGRITY + "4", id="5-1"),
    # d_norm on the last row: demands a decrease that never happened
    pytest.param(-1, {3: lambda v: v + 1.0}, INTEGRITY + "272", id="-1-3"),
    # residual on the last row: breaks the residual bound
    pytest.param(-1, {6: lambda v: v + 1.0}, INTEGRITY + "272", id="-1-6"),
    # eta_k becomes a value the search cannot produce
    pytest.param(4, {5: lambda v: v + 1.0}, "FAIL record_invariants", id="4-5"),
    # support_entered: the support check reads it
    pytest.param(6, {8: lambda v: v + 1.0}, INTEGRITY + "5", id="6-8"),
    # Edits that leave every record valid and every diagnostic passing; only
    # the comparison with the rerun catches them.  Row k is CSV row k + 1.
    pytest.param(102, {4: lambda m: m + 1, 5: lambda e: e / 2}, INTEGRITY + "101",
                 id="m_k-eta_k-k101"),
    pytest.param(151, {2: lambda v: v * 0.999}, INTEGRITY + "150", id="phi_y-k150"),
    pytest.param(151, {6: lambda v: v / 2}, INTEGRITY + "150", id="residual-k150"),
    pytest.param(151, {3: lambda v: v * 1.5}, INTEGRITY + "150", id="d_norm-k150"),
])
def test_verify_catches_corruption(tmp_path, capsys, row, edits, expected):
    out = tmp_path / "mut"
    assert main(["run", "--seed", "9", "--out", str(out)]) == 0
    _corrupt(out / "trace.csv", row, edits)
    capsys.readouterr()
    assert main(["verify", "--seed", "9", "--trace", str(out / "trace.csv"),
                 "--out", str(out)]) == 1
    assert expected + ":" in capsys.readouterr().out


def test_run_records_vanished_trial_steps_as_failed_searches(tmp_path, capsys):
    # At cap 2000 the trial step eta^m d underflows against y near m = 1070;
    # such a trial is y itself and must not count as an accepted search.
    out = tmp_path / "cap"
    flags = ["--seed", "9", "--cap-m", "2000"]
    assert main(["run", *flags, "--out", str(out)]) == 0
    records = read_trace_records(out / "trace.csv")
    assert max(r.m_k for r in records) <= 20
    assert sum(r.m_k == -1 for r in records) > 0
    capsys.readouterr()
    assert main(["verify", *flags, "--trace", str(out / "trace.csv"), "--out", str(out)]) == 0
    assert "PASS trace_integrity" in capsys.readouterr().out


def test_verify_rejects_negative_d_norm(tmp_path, capsys):
    out = tmp_path / "neg"
    assert main(["run", "--seed", "9", "--out", str(out)]) == 0
    path = out / "trace.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    rows[3][3] = format(-float(rows[3][3]), ".17g")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main(["verify", "--seed", "9", "--trace", str(path), "--out", str(out)]) == 1
    assert "FAIL record_invariants" in capsys.readouterr().out


def test_verify_plain_trace(tmp_path):
    out = tmp_path / "vp"
    assert main(["run-plain", "--seed", "9", "--out", str(out)]) == 0
    assert main(["verify", "--seed", "9", "--trace", str(out / "plain_trace.csv"),
                 "--out", str(out)]) == 0


def test_verify_creates_out_dir(tmp_path):
    out = tmp_path / "o9"
    assert main(["run", "--seed", "9", "--out", str(out)]) == 0
    new_dir = tmp_path / "new" / "dir"
    assert main(["verify", "--seed", "9", "--trace", str(out / "trace.csv"),
                 "--out", str(new_dir)]) == 0
    assert json.loads((new_dir / "verify.json").read_text())["stop_reason"] == "d_tol"


@pytest.mark.parametrize("matrix,exact", [([[2.0, -2.0], [0.1, 0.1]], 8.0), ([[1.0, -1.0]], 2.0)])
def test_run_passes_on_spectral_counterexamples(tmp_path, capsys, matrix, exact):
    # Power iteration from the all-ones vector underestimates ||A||^2 on both matrices.
    a = np.array(matrix)
    b = np.ones(a.shape[0])
    save_matrix(a, tmp_path / "A.csv")
    save_vector(b, tmp_path / "b.csv")
    out = tmp_path / "out"
    assert main(["run", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "b.csv"),
                 "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert lines and all(line.startswith("PASS") for line in lines)
    lipschitz = json.loads((out / "verify.json").read_text())["constants"]["lipschitz"]
    assert lipschitz == SmoothQuadratic.from_data(a, b).lipschitz
    assert lipschitz >= exact

import csv
import json
import math
import shutil

import numpy as np
import pytest
from conftest import platform_canary, write_v1_twin, write_v2_twin

from descentls import cli, linalg, objectives
from descentls.cli import DEFAULT_SPEC, build_parser, main
from descentls.driver import TRACE_COLUMNS, read_trace_records
from descentls.instances import generate_instance
from descentls.linalg import load_matrix, load_vector, save_matrix, save_vector, spectral_norm_sq
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
    assert np.array_equal(load_matrix(out1 / "A.csv")[0], load_matrix(out2 / "A.csv")[0])
    assert np.array_equal(load_vector(out1 / "b.csv"), load_vector(out2 / "b.csv"))
    assert np.count_nonzero(load_vector(out1 / "x_star.csv")) == 4


def test_main_parses_each_call_afresh(tmp_path, capsys):
    # main reuses one parser; no flag of an earlier call may carry over.
    assert build_parser() is not build_parser()
    assert main(["gen", "--seed", "5", "--rows", "4", "--cols", "8", "--out", str(tmp_path / "a")]) == 0
    assert main(["gen", "--out", str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("A.csv (4x8), b.csv, x_star.csv (seed 5)")
    assert lines[1].endswith("A.csv (32x64), b.csv, x_star.csv (seed 42)")


# Each state of gen's twin for the CLI tests: only "fresh" carries A and ||A||^2.
CLI_TWIN_STATES = {
    "fresh": lambda data: None,
    "v1-twin": lambda data: write_v1_twin(data / "A.csv.f64"),
    "v2-twin": lambda data: write_v2_twin(data / "A.csv.f64"),
    "twin-deleted": lambda data: (data / "A.csv.f64").unlink(),
    "csv-edited": lambda data: (data / "A.csv").write_text((data / "A.csv").read_text() + "# edited\n"),
}


def test_outputs_do_not_depend_on_the_twin(tmp_path, capsys):
    # gen writes A.csv.f64 next to A.csv; a v1 or v2 twin or none only makes
    # the commands parse the CSV and compute ||A||^2, to the same bits.
    outputs = []
    for state in ("fresh", "v1-twin", "v2-twin", "twin-deleted"):
        data, out = tmp_path / state, tmp_path / state / "out"
        assert main(["gen", "--seed", "3", "--out", str(data)]) == 0
        CLI_TWIN_STATES[state](data)
        files = ["--matrix", str(data / "A.csv"), "--rhs", str(data / "b.csv")]
        capsys.readouterr()
        assert main(["compare", *files, "--out", str(out)]) == 0
        assert main(["run", *files, "--out", str(out)]) == 0
        assert main(["verify", *files, "--trace", str(out / "trace.csv"), "--out", str(out / "verify")]) == 0
        outputs.append([capsys.readouterr().out.replace(str(data), "DATA")]
                       + [(out / name).read_bytes() for name in ("compare.json", "plain_trace.csv",
                                                                 "search_trace.csv", "trace.csv", "verify.json",
                                                                 "verify/verify.json")])
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


@pytest.mark.parametrize("state", CLI_TWIN_STATES)
def test_a_fresh_twin_spares_the_eigensolve(tmp_path, monkeypatch, state):
    assert main(["gen", "--seed", "3", "--out", str(tmp_path)]) == 0
    CLI_TWIN_STATES[state](tmp_path)
    calls = []

    def counting(a):
        calls.append(a.shape)
        return spectral_norm_sq(a)

    monkeypatch.setattr(objectives, "spectral_norm_sq", counting)
    monkeypatch.setattr(linalg, "spectral_norm_sq", counting)
    argv = ["--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "b.csv"), "--out", str(tmp_path / "out")]
    for command in (["run", *argv], ["verify", *argv, "--trace", str(tmp_path / "out" / "trace.csv")],
                    ["compare", *argv]):
        calls.clear()
        assert main(command) == 0
        assert calls == ([] if state == "fresh" else [(32, 64)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("empty", ["A.csv", "b.csv"])
def test_empty_csv_is_a_usage_error(tmp_path, capsys, micro_files, empty):
    (micro_files / empty).write_text("# no data\n\n")
    capsys.readouterr()
    assert main(["run", *micro_args(micro_files, tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {micro_files / empty} holds no data\n"


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


# Summary lines of `run` on the rescaled seed-42 instance below (default
# --alpha) and of `run --seed 42`, per platform canary (conftest).  Without
# numpy's AVX-512 loops the seed-42 instance has other bits, and its run
# takes 151 rows.
_RESCALED_SUMMARIES = {
    "fe0b36fa9bca11b7": ("stop=d_tol iterations=211 final_phi=0.0418484168446",
                         "stop=d_tol iterations=150 final_phi=0.0418484168446"),
    "c7cf059c8dfd6f58": ("stop=d_tol iterations=211 final_phi=0.0418484168446",
                         "stop=d_tol iterations=150 final_phi=0.0418484168446"),
    "118913114145f1ad": ("stop=d_tol iterations=211 final_phi=0.0418484168446",
                         "stop=d_tol iterations=151 final_phi=0.0418484168446"),
    "4fcebfea4bb1219d": ("stop=d_tol iterations=211 final_phi=0.0418484168446",
                         "stop=d_tol iterations=150 final_phi=0.0418484168446"),
}


def test_run_and_verify_a_rescaled_instance(tmp_path, capsys):
    # A * 2^-43 scales the minimizer by 2^43, so --d-tol scales with it
    # (879.6093022208 = 1e-10 * 2^43).  ||x|| ends near 1.8e13: the run must end
    # on d_tol, not on any bound on ||x||, and pass every check.  --alpha has
    # the units of h, so with 0.1 * 2^-86 the run is the one of --seed 42 on
    # the same platform.
    def summary_line():
        (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("stop=")]
        return line.split(" trace=")[0]

    a, b, _ = generate_instance(DEFAULT_SPEC)
    save_matrix(a * 2.0 ** -43, tmp_path / "A.csv")
    save_vector(b, tmp_path / "b.csv")
    data = ["--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "b.csv"),
            "--d-tol", "879.6093022208"]
    run_out = tmp_path / "run"
    assert main(["run", *data, "--out", str(run_out)]) == 0
    rescaled = summary_line()
    assert rescaled.startswith("stop=d_tol ")
    assert main(["verify", *data, "--trace", str(run_out / "trace.csv"), "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out

    assert main(["run", "--seed", "42", "--out", str(tmp_path / "unscaled")]) == 0
    unscaled = summary_line()
    assert main(["run", *data, "--alpha", repr(0.1 * 2.0 ** -86), "--out", str(tmp_path / "alpha")]) == 0
    assert summary_line() == unscaled
    want = _RESCALED_SUMMARIES.get(platform_canary())
    if want is not None:
        assert (rescaled, unscaled) == want


@pytest.mark.parametrize("flags, stop, note", [
    (["--max-iters", "60"], "max_iters", "inconclusive: stopped by max_iters"),
    (["--d-tol", "0"], "d_tol", None),
], ids=["max-iters-60", "d-tol-0"])
def test_run_passes_cauchy_tail_on_correct_runs(tmp_path, capsys, flags, stop, note):
    # A max_iters stop is inconclusive for cauchy_tail; a d_tol = 0 stop
    # leaves only a rounding-level residual, inside the check's slack.
    out = tmp_path / "run"
    assert main(["run", "--seed", "42", *flags, "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    report = json.loads((out / "verify.json").read_text())
    assert report["stop_reason"] == stop
    assert report["cauchy_tail"]["passed"] and report["cauchy_tail"].get("note") == note
    # The support check's level is the objective's sqrt(2 lam / h), lam = 0.01, h = 1.01 L.
    level = math.sqrt(2 * 0.01 / (1.01 * report["constants"]["lipschitz"]))
    assert report["support_stabilization"]["constant_used"] == level


def test_usage_errors(tmp_path, capsys, micro_files):
    assert main(["run", "--seed", "1", "--lambda", "-1", "--out", str(tmp_path)]) == 2
    assert main(["run", "--seed", "1", "--h-factor", "1.0", "--out", str(tmp_path)]) == 2
    # Non-finite or out-of-range parameters fail before any solve, so nothing is written.
    out = tmp_path / "nonfinite"
    files = ["--matrix", str(micro_files / "A.csv"), "--rhs", str(micro_files / "b.csv")]
    trace = tmp_path / "trace.csv"
    assert main(["run", *micro_args(micro_files, tmp_path)]) == 0
    for flag, value, message in [("--alpha", "inf", "alpha must be"), ("--d-tol", "nan", "d_tol must be"),
                                 ("--d-tol", "inf", "d_tol must be"),
                                 ("--h-factor", "inf", "h = inf must be finite"),
                                 ("--h-factor", "nan", "h = nan must be finite"),
                                 ("--lambda", "0", "lam must be positive and finite"),
                                 ("--lambda", "nan", "lam must be positive and finite"),
                                 ("--noise", "nan", "noise_sigma must be nonnegative and finite"),
                                 ("--noise", "inf", "noise_sigma must be nonnegative and finite")]:
        capsys.readouterr()
        assert main(["run", "--seed", "1", flag, value, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        if flag == "--noise":
            # Beside --matrix the generator flags are otherwise unused, and
            # an invalid one fails all the same, --rows -3 first.
            for command in (["run"], ["run-plain"], ["compare"], ["verify", "--trace", str(trace)]):
                assert main([*command, *files, flag, value, "--out", str(out)]) == 2
                assert capsys.readouterr().err == f"error: {message}\n"
                assert main([*command, *files, flag, value, "--rows", "-3", "--out", str(out)]) == 2
                assert capsys.readouterr().err == "error: rows and cols must be at least 1\n"
    capsys.readouterr()
    assert main(["gen", "--seed", "1", "--noise", "nan", "--out", str(out)]) == 2
    assert "error: noise_sigma must be nonnegative and finite" in capsys.readouterr().err
    for command in ("gen", "run"):
        assert main([command, "--seed", "-1", "--out", str(out)]) == 2
        assert "error: seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--matrix", str(micro_files / "A.csv"), "--out", str(tmp_path)]) == 2
    assert main(["run", "--matrix", str(tmp_path / "missing.csv"),
                 "--rhs", str(micro_files / "b.csv"), "--out", str(tmp_path)]) == 2


class Generated(Exception):
    """Raised in place of generating an instance."""


def test_flag_and_trace_errors_come_before_the_instance(tmp_path, capsys, monkeypatch, micro_files):
    # The search and stop flags are checked, and verify's trace is read,
    # before the instance is generated or read; --lambda and --h-factor
    # need L, so only they reach the instance.
    def generate(spec):
        raise Generated
    monkeypatch.setattr(cli, "generate_instance", generate)
    out = tmp_path / "out"
    flags = [("--alpha", "nan", "alpha must be positive and finite"), ("--eta", "1", "eta must lie in (0, 1)"),
             ("--cap-m", "-1", "cap must be nonnegative"), ("--max-iters", "0", "max_iters must be at least 1"),
             ("--d-tol", "nan", "d_tol must be nonnegative and finite")]
    trace = tmp_path / "trace.csv"
    trace.write_text(",".join(TRACE_COLUMNS) + "\n")
    missing = tmp_path / "missing.csv"
    for flag, value, message in flags:
        for command in ("run", "run-plain", "compare"):
            assert main([command, flag, value, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        # Also before a missing matrix file is read.
        assert main(["run", "--matrix", str(missing), "--rhs", str(micro_files / "b.csv"), flag, value,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        # verify reads its trace before it checks any flag.
        assert main(["verify", flag, value, "--trace", str(trace), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {trace}: trace is empty\n"
        assert main(["verify", flag, value, "--trace", str(missing), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    for flag, value in (("--lambda", "nan"), ("--h-factor", "1.0")):
        with pytest.raises(Generated):
            main(["run", flag, value, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--matrix", "A.csv"],
    ["gen", "--rhs", "b.csv"],
    ["run", "--zero-tol", "0.3"],
    ["run", "--zero-tol", "nan"],
    ["run", "--residual-tol", "1e-3"],
    ["run", "--bound-guard", "1e12"],
    ["compare", "--compare-tol", "1e-6"],
], ids=["gen-matrix", "gen-rhs", "run-zero-tol", "run-zero-tol-nan", "run-residual-tol",
        "run-bound-guard", "compare-compare-tol"])
def test_flags_a_command_does_not_take_exit_2(tmp_path, capsys, argv):
    # gen only generates, no command loads an iterate for a support tolerance
    # to apply to, the only tolerance stop is --d-tol, no bound on ||x||
    # stops a run: it ends on --d-tol or --max-iters, and compare counts
    # iterations to the fixed step length cli.COMPARE_TOL.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "run-plain", "compare", "verify"])
def test_non_finite_objective_is_a_usage_error(tmp_path, capsys, command):
    # With b of 1e160, ||b - A x||^2 overflows at x0 = 0, so iteration 0 has no finite Phi.
    save_matrix(np.random.default_rng(0).standard_normal((4, 8)), tmp_path / "A.csv")
    save_vector(np.full(4, 1e160), tmp_path / "b.csv")
    save_vector(np.ones(4), tmp_path / "b1.csv")
    argv = [command, "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "b.csv"),
            "--out", str(tmp_path / "out")]
    if command == "verify":
        assert main(["run", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "b1.csv"),
                     "--out", str(tmp_path / "finite")]) == 0
        argv += ["--trace", str(tmp_path / "finite" / "trace.csv")]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite objective at iteration 0: phi_x=inf, phi_y=inf\n"


@pytest.mark.parametrize("state", ["fresh", "twin-deleted"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_matrix_whose_norm_overflows_saves_and_is_a_usage_error(tmp_path, capsys, command, state):
    # Entries up to 1e300: save_matrix writes the twin with NaN for ||A||^2,
    # and every reader computes the norm again, which overflows.
    a = np.random.default_rng(2).standard_normal((3, 4)) * 10.0 ** np.arange(-300, 300, 50).reshape(3, 4)
    save_matrix(a, tmp_path / "A.csv")
    save_vector(np.ones(3), tmp_path / "b.csv")
    loaded, norm_sq = load_matrix(tmp_path / "A.csv")
    assert np.array_equal(loaded, a) and norm_sq is None
    CLI_TWIN_STATES[state](tmp_path)
    capsys.readouterr()
    assert main([command, "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "b.csv"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", "error: ||A||^2 overflows float64\n")


def test_overflowing_matrix_is_a_usage_error(tmp_path, capsys):
    save_matrix(np.full((3, 4), 1e200), tmp_path / "A.csv")
    save_vector(np.ones(3), tmp_path / "b.csv")
    capsys.readouterr()
    assert main(["run", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "b.csv"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: ||A||^2 overflows float64\n"


def test_compare_micro(tmp_path, micro_files):
    out = tmp_path / "cmp"
    assert main(["compare", *micro_args(micro_files, out)]) == 0
    summary = json.loads((out / "compare.json").read_text())
    assert summary["ls_iters"] == 1
    assert summary["plain_iters"] == 21
    assert (out / "plain_trace.csv").exists() and (out / "search_trace.csv").exists()


def test_compare_counts_null_when_no_row_reaches_the_tolerance(tmp_path, capsys):
    # One row of seed 42 has ||d|| far above cli.COMPARE_TOL in both variants.
    out = tmp_path / "cmp"
    assert main(["compare", "--seed", "42", "--max-iters", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "compare.json").read_text())
    assert (summary["plain_iters"], summary["ls_iters"]) == (None, None)
    assert json.loads(capsys.readouterr().out) == summary
    for name in ("plain_trace.csv", "search_trace.csv"):
        (row,) = read_trace_records(out / name)
        assert row.d_norm > cli.COMPARE_TOL


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
    pytest.param(4, {5: lambda v: v + 1.0}, INTEGRITY + "3", id="4-5"),
    # the failed search's eta_k = 0 becomes -0: equal as a value, not as bits
    pytest.param(3, {5: lambda v: -v}, INTEGRITY + "2", id="eta_k-negative-zero-k2"),
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


def test_failed_verify_replaces_the_passing_report(tmp_path, capsys):
    # run leaves a verify.json in which every check passed; a verify whose
    # trace fails trace_integrity must replace it, and write one into an
    # --out that does not exist yet.
    out = tmp_path / "d"
    assert main(["run", "--seed", "3", "--out", str(out)]) == 0
    copy = tmp_path / "trace.csv"
    shutil.copyfile(out / "trace.csv", copy)
    _corrupt(copy, 5, {3: lambda v: v * 1.5})
    for target in (out, tmp_path / "new"):
        capsys.readouterr()
        assert main(["verify", "--seed", "3", "--trace", str(copy), "--out", str(target)]) == 1
        printed = capsys.readouterr().out
        assert printed.startswith(INTEGRITY + "4: {'d_norm'") and printed.count("\n") == 1
        note = printed.removeprefix("FAIL trace_integrity: ").rstrip("\n")
        report = (target / "verify.json").read_text()
        assert json.loads(report) == {"trace_integrity": {"passed": False, "note": note}}
        assert report.endswith("}\n")


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
    assert "FAIL trace_integrity: row k=2" in capsys.readouterr().out


@pytest.mark.parametrize("edit,rows", [
    (lambda lines: lines[:-1], 272),
    (lambda lines: lines + lines[-1:], 274),
], ids=["short", "long"])
def test_verify_catches_a_trace_of_another_length(tmp_path, capsys, edit, rows):
    # Every row the two traces share is equal; only the row count differs.
    out = tmp_path / "len"
    assert main(["run", "--seed", "9", "--out", str(out)]) == 0
    path = out / "trace.csv"
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    capsys.readouterr()
    assert main(["verify", "--seed", "9", "--trace", str(path), "--out", str(out)]) == 1
    assert f"FAIL trace_integrity: expected 273 rows, trace has {rows}" in capsys.readouterr().out


@pytest.mark.parametrize("column,cell,message", [
    ("phi_x", "abc", "row 2, column phi_x: cannot read 'abc' as float"),
    ("support_size", "3.0", "row 2, column support_size: cannot read '3.0' as int"),
    ("residual", "", "row 2, column residual: cannot read '' as float"),
    ("support_left", None, "row 2 has 9 cells, expected 10"),
], ids=["float", "int", "empty", "short-row"])
def test_verify_names_an_unreadable_cell(tmp_path, capsys, column, cell, message):
    out = tmp_path / "bad"
    assert main(["run", "--seed", "9", "--out", str(out)]) == 0
    path = out / "trace.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if cell is None:
        del rows[3][rows[0].index(column)]
    else:
        rows[3][rows[0].index(column)] = cell
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main(["verify", "--seed", "9", "--trace", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_verify_names_the_file_of_an_empty_trace(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\n")
    assert main(["verify", "--seed", "9", "--trace", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: trace is empty\n"
    assert not out.exists()


@pytest.mark.parametrize("header", [["k", "phi_x"], [*TRACE_COLUMNS[:-1], "support_lost"], None],
                         ids=["short", "renamed", "no-header"])
def test_verify_names_the_file_of_a_wrong_header(tmp_path, capsys, header):
    out = tmp_path / "bad"
    assert main(["run", "--seed", "9", "--out", str(out)]) == 0
    path = out / "trace.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("" if header is None else ",".join(header) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert main(["verify", "--seed", "9", "--trace", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: unexpected trace header: {header}\n"


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

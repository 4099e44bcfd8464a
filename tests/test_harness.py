import dataclasses
import json
import os
import pathlib
import re
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracfold.cli import main
from fracfold.config import RunConfig, parse_config, serialize_config
from fracfold.errors import ConvergenceError
from fracfold.io import _atomic_file, atomic_write_text, export_plot_data
from fracfold.verify import SUITES, VerificationRecord, verify_suite


def test_every_config_field_has_a_default():
    for f in dataclasses.fields(RunConfig):
        assert f.default is not dataclasses.MISSING, f.name


def test_config_round_trip_identity():
    cfg = RunConfig(s=0.37, delta=2.25, n=513, newton_tol=3.5e-9, suites="rates,fold", lam=0.125)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert parse_config(serialize_config(again)) == again


# a config string value: no line break, no surrounding whitespace (which INI
# values lose) and no ";" at its start or after whitespace, which starts an
# inline comment such as the README's; INI's own punctuation drawn often
_CONFIG_TEXT = st.text(
    st.sampled_from("%$(){}[]=:;# ") | st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"))
).filter(
    lambda v: v == v.strip() and not re.search(r"(^|\s);", v)
)
_CONFIG_VALUE = {
    "float": st.floats(allow_nan=False),
    "int": st.integers(-(2 ** 63), 2 ** 63),
    "str": _CONFIG_TEXT,
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.fixed_dictionaries(
        {f.name: _CONFIG_VALUE[f.type] for f in dataclasses.fields(RunConfig)}
        | {"newton_tol": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)}
        | {"seed": st.integers(0, 2 ** 63)}
    )
)
@example(dataclasses.asdict(RunConfig(out_dir="a%b", suites="%(s)s")))
def test_config_round_trips_every_field(values):
    # serialize then parse is the identity for any value of every field,
    # strings with % in them included
    cfg = RunConfig(**values)
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_config_block_parses_to_defaults():
    # the README's example file, inline `;` comments included, is the default configuration
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config(block) == RunConfig()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config("[problem]\nunknown = 3\n")
    with pytest.raises(ValueError):
        parse_config("[mystery]\ns = 0.4\n")


def test_config_rejects_removed_keys():
    for section, name in (("tolerances", "eps_stop"), ("tolerances", "eigen_tol"),
                          ("continuation", "probe_steps"), ("continuation", "growth_cap"),
                          ("continuation", "lambda1_threshold"), ("continuation", "bracket_rtol"),
                          ("continuation", "lambda_init"), ("continuation", "max_points"),
                          ("continuation", "arc_step"), ("continuation", "fold_steps")):
        with pytest.raises(ValueError):
            parse_config(f"[{section}]\n{name} = 1\n")


def test_cli_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve-ps", "--does-not-exist", "1"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_cli_malformed_config_is_a_clean_error(tmp_path, capsys):
    # a file with no section header, and one that gives a key twice: an
    # `error:` line on stderr and exit 1, not a traceback
    for name, text in (("headless.cfg", "n = 64\n"), ("twice.cfg", "[grid]\nn = 64\nn = 128\n")):
        path = tmp_path / name
        path.write_text(text)
        assert main(["assemble-check", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed config")


def test_cli_assemble_check(capsys, tmp_path):
    # the triplet writer, not the command, makes the output directory
    code = main(["assemble-check", "--s", "0.5", "--n", "64", "--out", str(tmp_path / "new"), "--dump-matrix"])
    assert code == 0
    out = capsys.readouterr().out
    assert "assemble-check" in out
    assert (tmp_path / "new" / "operator-triplets.txt").exists()


def test_cli_solve_ps_writes_schema(tmp_path, capsys):
    code = main(
        ["solve-ps", "--s", "0.4", "--delta", "3", "--beta", "0", "--n", "512", "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "solution-ps.json").read_text())
    assert set(payload) == {"grid", "params", "values", "residual", "cone_norm", "fitted_exponent"}
    assert payload["grid"] == {"L": 1.0, "n": 512}
    assert set(payload["params"]) == {"s", "delta", "beta", "lambda", "p"}
    assert payload["params"]["p"] is None
    assert len(payload["values"]) == 512
    assert payload["fitted_exponent"] == pytest.approx(0.2, abs=0.05)


def test_cli_determinism(tmp_path):
    args = ["solve-ps", "--s", "0.45", "--delta", "1", "--n", "128"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "solution-ps.json").read_bytes() == (out_b / "solution-ps.json").read_bytes()


def test_cli_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRACFOLD_OUT", str(tmp_path / "env-out"))
    assert main(["solve-ps", "--s", "0.5", "--delta", "0.5", "--n", "96"]) == 0
    assert (tmp_path / "env-out" / "solution-ps.json").exists()


def test_cli_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(RunConfig(s=0.5, delta=1.0, n=96)))
    out = tmp_path / "out"
    assert main(["solve-ps", "--config", str(cfg_path), "--n", "128", "--out", str(out)]) == 0
    payload = json.loads((out / "solution-ps.json").read_text())
    assert payload["grid"]["n"] == 128


def test_cli_branch_csv(tmp_path, capsys):
    code = main(
        [
            "fold",
            "--s", "0.4", "--delta", "0.5", "--beta", "0", "--p", "2", "--n", "128",
            "--out", str(tmp_path), "--export-plots",
        ]
    )
    assert code == 0
    lines = (tmp_path / "branch.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,sup_norm,lambda1,monitor,arclength,residual,segment"
    segments = [row.rsplit(",", 1)[1] for row in lines[1:]]
    assert segments[0] == "minimal"
    assert "fold" in segments
    fold_idx = segments.index("fold")
    assert all(seg == "minimal" for seg in segments[:fold_idx])
    assert segments[-1] == "upper"
    diagram = np.loadtxt(tmp_path / "branch-bifurcation.dat")
    lam_col = diagram[:, 0]
    apex = lam_col.argmax()
    assert 0 < apex < len(lam_col) - 1
    assert lam_col[-1] < lam_col[apex]


def test_cli_verify_exit_codes(tmp_path, monkeypatch):
    passing = VerificationRecord("ok", "", {}, "1", "1", "", True)
    failing = VerificationRecord("bad", "", {}, "1", "2", "", False)
    monkeypatch.setitem(SUITES, "fake-pass", lambda cfg, cache: [passing])
    monkeypatch.setitem(SUITES, "fake-fail", lambda cfg, cache: [passing, failing])
    assert main(["verify", "--suite", "fake-pass", "--out", str(tmp_path / "p")]) == 0
    assert main(["verify", "--suite", "fake-fail", "--out", str(tmp_path / "f")]) == 2
    report = json.loads((tmp_path / "f" / "verification.json").read_text())
    assert [r["name"] for r in report] == ["ok", "bad"]
    assert main(["verify", "--suite", "no-such-suite", "--out", str(tmp_path / "x")]) == 1


def test_a_check_that_raises_is_one_failed_record(monkeypatch):
    # the other suites still report, and a record's fields are coerced to
    # text and a plain bool whatever the check computed them as
    def check_boom(cfg, cache):
        raise ConvergenceError("planted")

    monkeypatch.setitem(SUITES, "boom", check_boom)
    monkeypatch.setitem(SUITES, "fine", lambda cfg, cache: [VerificationRecord("ok", "", {}, 1, 2.5, 0.1, np.True_)])
    report = verify_suite(RunConfig(), ["boom", "fine"])
    error, ok = report.records
    assert (error.name, error.passed, error.measured) == ("check_boom-error", False, "ConvergenceError: planted")
    assert (ok.expected, ok.measured, ok.tolerance) == ("1", "2.5", "0.1") and ok.passed is True
    assert not report.passed
    assert [r["name"] for r in json.loads(report.to_json())] == ["check_boom-error", "ok"]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "nested" / "file.txt"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    assert [p.name for p in (tmp_path / "nested").iterdir()] == ["file.txt"]


def test_an_atomic_write_that_raises_leaves_the_target_as_it_was(tmp_path):
    target = tmp_path / "file.txt"
    atomic_write_text(target, "before")
    with pytest.raises(ValueError, match="planted"):
        with _atomic_file(target) as fh:
            fh.write("half an artifact")
            raise ValueError("planted")
    assert target.read_text() == "before"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_gives_the_mode_of_the_umask(tmp_path, umask, mode):
    # an artifact gets the mode open() would give it, 0666 less the umask,
    # not the 0600 of its temp file
    before = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "file.txt", "payload")
    finally:
        os.umask(before)
    assert stat.S_IMODE((tmp_path / "file.txt").stat().st_mode) == mode


def test_export_refuses_empty_branch(tmp_path):
    from fracfold.continuation import Branch

    with pytest.raises(ValueError):
        export_plot_data(Branch(points=[]), tmp_path)
    with pytest.raises(TypeError):
        export_plot_data(object(), tmp_path)


def test_export_boundary_profile(tmp_path, op128_s05):
    from fracfold import ProblemSpec, solve_pure_singular

    field = solve_pure_singular(ProblemSpec(s=0.5, delta=1.0, beta=0.0), op128_s05)
    (path,) = export_plot_data(field, tmp_path, prefix="ps")
    data = np.loadtxt(path)
    assert data.shape == (128, 2)
    assert np.all(np.diff(data[:, 0]) >= 0.0)
    # log-log slope over the boundary window recovers the layer exponent
    mask = data[:, 0] <= 0.2
    slope = np.polyfit(np.log(data[mask, 0]), np.log(data[mask, 1]), 1)[0]
    assert 0.3 <= slope <= 0.55


def test_cli_solve_plambda(tmp_path):
    code = main(
        ["solve-plambda", "--s", "0.4", "--delta", "0.5", "--beta", "0", "--p", "2",
         "--lambda", "0.1", "--n", "128", "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "solution-plambda.json").read_text())
    assert payload["params"]["p"] == 2.0
    assert payload["params"]["lambda"] == 0.1
    assert min(payload["values"]) > 0.0
    assert payload["cone_norm"] > 0.0 and payload["fitted_exponent"] is not None


def test_cli_solve_past_the_fold_is_a_clean_error(tmp_path, capsys):
    code = main(["solve-plambda", "--lambda", "0.7", "--n", "128", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_solve_ps_rejects_a_nonpositive_lambda(tmp_path, capsys):
    # the pure singular solve scales K by lambda, so lambda <= 0 is an error, as for solve-plambda
    for lam in ("-2", "0"):
        assert main(["solve-ps", "--lambda", lam, "--n", "64", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: lambda must be positive")
    assert not (tmp_path / "solution-ps.json").exists()


def test_cli_rejects_a_non_finite_lambda_as_a_usage_error(tmp_path, capsys):
    # nan is no lambda: the error names the parameter, and says nothing of the fold
    assert main(["solve-plambda", "--lambda", "nan", "--n", "64", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: lam must be a finite number, got nan\n"
    assert main(["solve-ps", "--lambda", "inf", "--n", "64", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: lambda must be positive and finite")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_a_bad_newton_tol_is_a_usage_error(tmp_path, capsys, tol):
    # a tolerance that no residual can meet, or that every residual meets,
    # is rejected as input: not a stalled Newton run, nor a solution at any residual
    text = f"[tolerances]\nnewton_tol = {tol}\n"
    with pytest.raises(ValueError, match="newton_tol"):
        parse_config(text)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["solve-plambda", "--config", str(cfg_path), "--n", "64", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: newton_tol must be positive and finite"), err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, seed):
    # numpy's generators take no negative seed: from a config or from --seed
    # it is rejected as input, naming the field, not recorded as a failed check
    text = f"[output]\nseed = {seed}\n"
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        parse_config(text)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    for args in (["--config", str(cfg_path)], ["--seed", seed]):
        assert main(["verify", "--suite", "comparison", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a nonnegative integer"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "section,name,raw,kind",
    [("grid", "n", "abc", "an integer"), ("grid", "n", "1e3", "an integer"), ("problem", "delta", "abc", "a float")],
)
def test_a_value_of_the_wrong_type_names_its_key(tmp_path, capsys, section, name, raw, kind):
    # the error says which key of which section, and the type it expects
    text = f"[{section}]\n{name} = {raw}\n"
    message = f"[{section}] {name} must be {kind}, got {raw!r}"
    with pytest.raises(ValueError) as err:
        parse_config(text)
    assert str(err.value) == message
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert main(["assemble-check", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_empty_suite_selection_is_a_usage_error(tmp_path, capsys):
    # `--suite ,` and a config with `suites =` name no suite: exit 1 and no
    # verification.json, not a report of 0/0 records passed
    with pytest.raises(ValueError, match="no suite selected"):
        verify_suite(RunConfig(), [])
    assert main(["verify", "--suite", ",", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: no suite selected")
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("[verify]\nsuites =\n")
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: no suite selected")
    assert [p.name for p in tmp_path.iterdir()] == ["empty.cfg"]


def test_cli_multiplicity(tmp_path):
    code = main(
        ["multiplicity", "--s", "0.4", "--delta", "0.5", "--beta", "0", "--p", "2",
         "--n", "128", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "multiplicity.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,minimal_sup,second_sup,gap,complete"
    assert len(lines) == 4
    assert all(row.endswith("True") for row in lines[1:])


def test_exported_super_profile_slope(tmp_path):
    from fracfold import ProblemSpec, assemble_operator, build_grid, solve_pure_singular

    op = assemble_operator(build_grid(1.0, 256), 0.4)
    field = solve_pure_singular(ProblemSpec(s=0.4, delta=3.0, beta=0.0), op)
    (path,) = export_plot_data(field, tmp_path, prefix="super")
    data = np.loadtxt(path)
    mask = (data[:, 0] >= 2.5 * op.grid.h) & (data[:, 0] <= 0.15)
    slope = np.polyfit(np.log(data[mask, 0]), np.log(data[mask, 1]), 1)[0]
    assert slope == pytest.approx(0.2, abs=0.07)


def test_cli_branch_with_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(RunConfig(s=0.4, delta=0.5, beta=0.0, p=2.0, n=96)))
    out = tmp_path / "out"
    assert main(["branch", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "branch.csv").read_text().strip().splitlines()[1:]
    lam1 = [float(r.split(",")[2]) for r in rows if r.endswith("minimal")]
    assert lam1 and all(v > 0.0 for v in lam1)

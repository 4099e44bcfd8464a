import dataclasses
import json
import pathlib

import numpy as np
import pytest

from fracfold.cli import main
from fracfold.config import RunConfig, parse_config, serialize_config
from fracfold.io import atomic_write_text, export_plot_data
from fracfold.verify import SUITES, VerificationRecord


def test_every_config_field_has_a_default():
    for f in dataclasses.fields(RunConfig):
        assert f.default is not dataclasses.MISSING, f.name


def test_config_round_trip_identity():
    cfg = RunConfig(s=0.37, delta=2.25, n=513, newton_tol=3.5e-9, suites="rates,fold", lam=0.125)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert parse_config(serialize_config(again)) == again


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
                          ("continuation", "lambda1_threshold"), ("continuation", "bracket_rtol")):
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
    code = main(["assemble-check", "--s", "0.5", "--n", "64", "--out", str(tmp_path), "--dump-matrix"])
    assert code == 0
    out = capsys.readouterr().out
    assert "assemble-check" in out
    assert (tmp_path / "operator-triplets.txt").exists()


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


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "nested" / "file.txt"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    assert [p.name for p in (tmp_path / "nested").iterdir()] == ["file.txt"]


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

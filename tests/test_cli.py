"""Tests for the command-line interface."""

import json
import operator
import os
import pathlib
import re
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest

from invlearn import ExperimentConfig, experiment, run_rate_experiment
from invlearn.bounds import curve_table
from invlearn.cli import main
from invlearn.errors import ConvergenceError
from invlearn.experiment import bound_inputs, canonical_json, override

from configs import BOUNDED, CRITERION_2, FIXED_POINT, SMALL


def write_config(tmp_path, raw=SMALL):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def test_generate_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
               "generate", "--m", "20"])
    assert rc == 0
    lines = (tmp_path / "out" / "training_set.csv").read_text().splitlines()
    assert lines[0] == "j,x_0,y_0"
    assert len(lines) == 21


def test_tikhonov_on_a_rank_deficient_operator_is_a_config_error(
        tmp_path, capsys):
    # 1 singular value for n_x = 2, or a second one of 1e-7 (normal matrix
    # of cond 1e14): at theta = 0, in every class, B = 0 leaves ker A
    # (numerically) unregularised, so erm, rates and verify would fail on a
    # singular normal matrix; every subcommand rejects the config instead.
    # With A = I and a noise eigenvalue of 1e-14 the normal matrix has the
    # same condition, but ker A is trivial: the error names the noise law
    rank_one = override(SMALL, {
        "problem.forward": {"n_x": 2, "n_y": 1, "singular_values": [1.0]},
        "problem.prior.mean": [0.0, 0.0],
        "problem.prior.cov_eigenvalues": [1.0, 1.0]})
    near_singular = override(SMALL, {
        "problem.forward": {"n_x": 2, "n_y": 2,
                            "singular_values": [1.0, 1e-7]},
        "problem.prior.mean": [0.0, 0.0],
        "problem.prior.cov_eigenvalues": [1.0, 1.0],
        "problem.noise.cov_eigenvalues": [1.0, 1.0],
        "family.structure": "diagonal"})
    noisy = override(near_singular, {
        "problem.forward.singular_values": [1.0, 1.0],
        "problem.noise.cov_eigenvalues": [1.0, 1e-14]})
    forward = "problem.forward.singular_values"
    for raw, path in ((rank_one, forward), (near_singular, forward),
                      (noisy, "problem.noise.cov_eigenvalues")):
        cfg = write_config(tmp_path, raw)
        for command in (["erm", "--m", "16"], ["rates"], ["verify"],
                        ["bounds"]):
            rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")]
                      + command)
            assert rc == 2
            err = capsys.readouterr().err
            assert f"config {path}: singular normal matrix" in err
            assert ("ker A" in err) == (raw is not noisy)
            assert "Traceback" not in err


def test_generate_m_zero_is_not_the_default(tmp_path, capsys):
    # --m 0 is a given value, rejected like --m -3, not read as "absent"
    cfg = write_config(tmp_path)
    for m in ("0", "-3"):
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                   "generate", "--m", m])
        assert rc == 2
        assert "training set size must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "training_set.csv").exists()


def test_erm_prints_fit(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "erm", "--m", "500"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"]
    assert 0 <= out["expected_loss_mc"] <= 1.0


def test_rates_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run1"
    rc = main(["--config", str(cfg), "--out", str(out), "rates"])
    assert rc == 0
    assert (out / "rates.csv").exists()
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["predicted_exponent"] == -0.5


def test_rates_seed_override_changes_digest(tmp_path, capsys):
    cfg = write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(a), "rates"]) == 0
    assert main(["--config", str(cfg), "--out", str(b), "--seed", "99",
                 "rates"]) == 0
    csv_a = (a / "rates.csv").read_text()
    csv_b = (b / "rates.csv").read_text()
    assert csv_a != csv_b


def test_rates_replay_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path)
    a = tmp_path / "run1"
    b = tmp_path / "run2"
    assert main(["--config", str(cfg), "--out", str(a), "rates"]) == 0
    assert main(["--config", str(cfg), "--out", str(b), "rates"]) == 0
    assert (a / "rates.csv").read_bytes() == (b / "rates.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_rates_singular_noise_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, override(
        SMALL, {"problem.noise.cov_eigenvalues": [0.0]}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "rates"])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "problem.noise.cov_eigenvalues" in err


def test_verify_scalar_gaussian_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "verify"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]


def test_verify_exits_one_on_a_failing_entry(tmp_path, capsys,
                                              monkeypatch):
    # an error inside a check goes into the report, which fails
    def fails(*args, **kwargs):
        raise ConvergenceError("certificate did not converge")

    monkeypatch.setattr(experiment, "certify_stability", fails)
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "verify"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["checks"]["stability_certificate"] == {
        "passed": False, "error": "certificate did not converge"}
    assert all(check["passed"] for name, check in report["checks"].items()
               if name != "stability_certificate")


def test_bounds_requires_m_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, {k: v for k, v in SMALL.items()
                                  if k != "m_grid"})
    rc = main(["--config", str(cfg), "bounds"])
    assert rc == 2
    assert "missing required config key: m_grid" in capsys.readouterr().err


def test_bounds_emits_curves(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["--config", str(cfg), "bounds"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 4
    assert all("min_value" in entry and "chaining_r0" in entry for entry in out)
    # bound value decreases with m
    vals = [entry["min_value"] for entry in out]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_bounds_out_writes_the_curve_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "bounds"]) == 0
    path = out / "bounds.json"
    assert capsys.readouterr().out == f"wrote {path}\n"
    table = curve_table(*bound_inputs(ExperimentConfig.from_dict(SMALL)))
    assert path.read_text() == json.dumps(table, indent=2) + "\n"


def test_bounds_prints_the_curves_of_the_rate_run(tmp_path, capsys):
    # the command and the rate run read one curve table
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "bounds"]) == 0
    fit = run_rate_experiment(ExperimentConfig.from_dict(SMALL))
    assert json.loads(capsys.readouterr().out) == fit.curves()


def test_bounds_entries_carry_the_curve_minimum_not_the_value_at_d(
        tmp_path, capsys):
    # at r = D the Euclidean model's log N is 0, so a value there would be
    # the stability term alone: entries report the curve's minimum instead
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "bounds"]) == 0
    for entry in json.loads(capsys.readouterr().out):
        assert "value" not in entry
        assert entry["min_value"] == min(entry["values"])
        assert entry["argmin_r"] in entry["r_grid"]


def test_bounds_names_the_derived_inputs_and_model(tmp_path, capsys):
    # a Hölder family on a Sobolev class: alpha s q <= 1, so the chaining
    # integral diverges at r = 0
    cfg = write_config(tmp_path, override(SMALL, {
        "family": {"kind": "elastic_net", "alpha": 0.5, "eta": 0.5,
                   "structure": "scale"},
        "param_class": {"kind": "sobolev_ball", "radius": 1.0,
                        "smoothness": 1.0}}))
    assert main(["--config", str(cfg), "bounds"]) == 0
    for entry in json.loads(capsys.readouterr().out):
        assert (entry["inputs"]["q"], entry["inputs"]["alpha"]) == (1, 0.5)
        assert (entry["model"]["kind"], entry["model"]["s"]) == (
            "entropy_decay", 1.0)
        assert entry["chaining_r0"] is None
        assert "alpha*s*q <= 1" in entry["chaining_note"]


def test_malformed_config_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": }')
    rc = main(["--config", str(path), "erm"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, name):
    # a missing file, or a directory
    rc = main(["--config", str(tmp_path / name), "erm"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot read config:")


def test_missing_config_key_reports_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {k: v for k, v in SMALL.items()
                                  if k != "family"})
    rc = main(["--config", str(cfg), "rates"])
    assert rc == 2
    assert "family" in capsys.readouterr().err


def test_seed_on_a_config_that_is_not_an_object_names_its_path(
        tmp_path, capsys):
    cfg = write_config(tmp_path, [1, 2])
    assert main(["--config", str(cfg), "--seed", "2", "verify"]) == 2
    assert "config master_seed" in capsys.readouterr().err


def test_misspelt_family_key_reports_path(tmp_path, capsys):
    cfg = write_config(tmp_path, override(
        SMALL, {"family": {"kind": "tikhonov", "structur": "diagonal"}}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
               "rates"])
    assert rc == 2
    assert "family.structur" in capsys.readouterr().err


def test_unknown_subcommand_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_config_required(capsys):
    rc = main(["erm"])
    assert rc == 2
    assert "--config is required" in capsys.readouterr().err


# each case: the config changes, or None where the case deletes the key at
# its path, and the dotted path its error names
SCHEMA_CASES = {
    "missing forward": (None, "problem.forward"),
    "missing prior eigenvalues": (None, "problem.prior.cov_eigenvalues"),
    "missing class kind": (None, "param_class.kind"),
    "family not an object": ({"family": "tikhonov"}, "family"),
    "param_class not an object": ({"param_class": 3}, "param_class"),
    "unknown basis": ({"problem.forward.basis": "weird"},
                      "problem.forward.basis"),
    "m_grid a string": ({"m_grid": "16"}, "m_grid"),
    "prior key typo": ({"problem.prior.cov_eigenvalue": [1.0]},
                       "problem.prior.cov_eigenvalue"),
    "noise key typo": ({"problem.noise.typ": "gaussian"},
                       "problem.noise.typ"),
    "non-Gaussian noise": ({"problem.noise.type": "uniform_ball"},
                           "problem.noise.type"),
    # wrong-typed values
    "n_x a string": ({"problem.forward.n_x": "one"}, "problem.forward.n_x"),
    "trials a string": ({"trials_per_m": "ten"}, "trials_per_m"),
    "singular values a string": ({"problem.forward.singular_values": "abc"},
                                 "problem.forward.singular_values"),
    "left basis a string": ({"problem.forward.basis": {"left": "weird"}},
                            "problem.forward.basis.left"),
    "ragged left basis": (
        {"problem.forward.basis": {"left": [[1.0], [1.0, 0.0]]}},
        "problem.forward.basis.left"),
    # removed settings
    "tolerances section": ({"tolerances": {"erm_tol": 1e-6}}, "tolerances"),
    "erm section": ({"erm": {"n_starts": 2}}, "erm"),
    # the bound inputs are derived from the rest of the config
    "bounds section": ({"bounds": {}}, "bounds"),
    "bounds key typo": ({"bounds": {"Kk": 2.0}}, "bounds"),
    "bounds q 3": ({"bounds": {"q": 3}}, "bounds"),
    "bounds D below 1": ({"bounds": {"D": 0.5}}, "bounds"),
    "bounds alpha 2": ({"bounds": {"alpha": 2}}, "bounds"),
    "unknown model kind": ({"bounds": {"model": {"kind": "cube"}}}, "bounds"),
    "unknown model key": (
        {"bounds": {"model": {"kind": "euclidean_ball", "d": 1,
                              "radius": 1.0}}}, "bounds"),
    # values JSON admits but no computation can use
    "radius NaN": ({"param_class.radius": float("nan")},
                   "param_class.radius"),
    "radius Infinity": ({"param_class.radius": float("inf")},
                        "param_class.radius"),
    "singular value NaN": (
        {"problem.forward.singular_values": [float("nan")]},
        "problem.forward.singular_values"),
    "prior mean NaN": ({"problem.prior.mean": [float("nan")]},
                       "problem.prior.mean"),
    "unknown structure": ({"family.structure": "weird"}, "family.structure"),
    "unknown family kind": ({"family.kind": "weird"}, "family.kind"),
    "noise longer than n_y": ({"problem.noise.mean": [0.0, 0.0]},
                              "problem.noise.mean"),
    "prior dim other than n_x": (
        {"problem.prior": {"type": "uniform_ball", "dim": 2, "radius": 1.0}},
        "problem.prior.dim"),
    # values of the right type that a constructor's range check rejects:
    # the error names the config object
    "negative prior eigenvalue": (
        {"problem.prior.cov_eigenvalues": [-1.0]}, "problem.prior"),
    "negative singular value": (
        {"problem.forward.singular_values": [-1.0]}, "problem.forward"),
    "n_x 0": ({"problem.forward.n_x": 0}, "problem.forward"),
    "more singular values than min(n_x, n_y)": (
        {"problem.forward.singular_values": [1.0, 0.5]}, "problem.forward"),
    "prior ball of radius 0": (
        {"problem.prior": {"type": "uniform_ball", "radius": 0.0}},
        "problem.prior"),
    "non-orthonormal left basis": (
        {"problem.forward.basis": {"left": [[2.0]]}}, "problem.forward"),
    "non-orthonormal prior basis": (
        {"problem.prior.cov_basis": [[2.0]]}, "problem.prior"),
    "non-zero noise mean": ({"problem.noise.mean": [1.0]},
                            "problem.noise.mean"),
    # `delta` is not a config key, whatever its value
    "delta below root trace": ({"problem.delta": 0.5},
                               "unknown config key: problem.delta"),
    "negative radius": ({"param_class.radius": -1}, "param_class"),
    "unknown class kind": ({"param_class.kind": "cube"}, "param_class"),
    "sobolev without smoothness": (
        {"param_class": {"kind": "sobolev_ball"}}, "param_class"),
    "smoothness on a euclidean ball": ({"param_class.smoothness": 1.0},
                                       "param_class"),
    "alpha above 1": (
        {"family": {"kind": "elastic_net", "alpha": 1.5,
                    "structure": "scale"}}, "family"),
    "budget above 1": (
        {"family": {"kind": "fixed_point", "contraction_budget": 1.5}},
        "family"),
    "Tikhonov zero noise": ({"problem.noise.cov_eigenvalues": [0.0]},
                            "problem.noise.cov_eigenvalues"),
}


@pytest.mark.parametrize("command, case", [
    (cmd, case) for cmd in ("erm", "rates", "verify", "generate", "bounds")
    for case in SCHEMA_CASES])
def test_schema_error_names_its_path(tmp_path, capsys, command, case):
    changes, path = SCHEMA_CASES[case]
    raw = override(SMALL, changes or {})
    if changes is None:
        *parents, leaf = path.split(".")
        del reduce(operator.getitem, parents, raw)[leaf]
    cfg = write_config(tmp_path, raw)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
               command])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # the whole dotted path, not a prefix of a longer one
    assert re.search(rf"(?<![\w.]){re.escape(path)}(?![\w.])", err), err


def test_param_class_dim_must_match_theta_length(tmp_path, capsys):
    # the scalar `scale` family has a theta of length 1
    cfg = write_config(tmp_path, override(SMALL, {"param_class.dim": 3}))
    rc = main(["--config", str(cfg), "erm"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "param_class.dim" in err and "length 1" in err, err


@pytest.mark.parametrize("raw, path, value", [
    (FIXED_POINT, "param_class.dim", 2), (SMALL, "problem.noise.mean", [0.0]),
    (BOUNDED, "problem.prior.dim", 1)])
def test_a_derived_key_builds_what_its_one_legal_value_builds(
        tmp_path, raw, path, value):
    # without the key, a config builds the same law, family and class as
    # with its one legal value, and erm runs on it
    given, derived = (ExperimentConfig.from_dict(r)
                      for r in (override(raw, {path: value}), raw))
    assert derived.param_class == given.param_class
    theta = given.param_class.sample(np.random.default_rng(0))
    (x, y), (x2, y2) = (c.problem.sample(np.random.default_rng(1), 64)
                        for c in (given, derived))
    assert np.array_equal(x, x2) and np.array_equal(y, y2)
    assert np.array_equal(derived.family.reconstruct_batch(theta, y),
                          given.family.reconstruct_batch(theta, y))
    assert main(["--config", str(write_config(tmp_path, raw)), "erm",
                 "--m", "16"]) == 0


def test_stray_linalg_error_is_reported_without_traceback(
        tmp_path, capsys, monkeypatch):
    import invlearn.cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(invlearn.cli, "erm_solve", singular)
    rc = main(["--config", str(write_config(tmp_path)), "erm", "--m", "20"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Singular matrix\n"
    assert "Traceback" not in captured.out


ROOT = pathlib.Path(__file__).resolve().parents[1]

# runs in a fresh interpreter where every ``import scipy...`` raises, and
# prints the return code of each command
NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from invlearn.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    print(rc)
"""


def test_readme_example_is_the_criterion_2_config():
    # README's example is the config every test config derives from
    readme = (ROOT / "README.md").read_text()
    example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S)[1])
    assert canonical_json(example) == canonical_json(CRITERION_2)


def test_cli_runs_without_scipy(tmp_path):
    # the README example (m_grid cut to 16..128), its rate-run copy and its
    # alpha = 1 Elastic-Net and fixed-point copies, as CI builds them, run
    # every subcommand with scipy unimportable
    example = override(CRITERION_2, {"m_grid": SMALL["m_grid"]})
    configs = {"example": example, "rates": SMALL, "elastic_net": override(
        example, {"family": {"kind": "elastic_net", "alpha": 1.0}}),
        "fixed_point": override(example, {"family": FIXED_POINT["family"]})}
    paths = {}
    for name, c in configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(c))
    runs = [["--config", str(paths["rates"]), "--out",
             str(tmp_path / "run"), "rates"]]
    for name in ("example", "elastic_net", "fixed_point"):
        base = ["--config", str(paths[name]), "--out",
                str(tmp_path / name)]
        runs += [base + ["generate", "--m", "16"], base + ["erm", "--m", "16"],
                 base + ["verify"], base + ["bounds"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT,
                           json.dumps(runs)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # every subcommand exits 0, verify because each report passes
    assert proc.stdout.split() == ["0"] * len(runs)
    assert (tmp_path / "run" / "summary.json").is_file()

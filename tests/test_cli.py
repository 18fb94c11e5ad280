import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpu.cli import main
from sbpu.config import PRESETS, ConfigError, FederationConfig

# A main() call that builds a classifier cohort raises glibc's mmap and trim
# thresholds for the rest of the test process (federation.tune_malloc); no
# output depends on them.


def base_config(out_dir, **overrides):
    cfg = {
        "objective": {"kind": "quadratic_random", "dim": 8,
                      "eig_range": [1.0, 2.0], "center_spread": 0.3,
                      "radius": 4.0, "sigma": 0.2, "layout": [[8, 1]]},
        "K": 3, "E": 2, "rounds": 4, "alpha": 0.1,
        "beta1": 0.1, "beta2": 0.08, "tie_gradients": True,
        "seed": 11, "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="c.json", **overrides):
    cfg = base_config(tmp_path / "out", **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


class TestConfigValidation:
    def test_all_violations_listed(self):
        with pytest.raises(ConfigError) as e:
            FederationConfig.from_dict({"K": 0, "rounds": -1, "E": 0,
                                        "objective": {"kind": "quadratic_random"},
                                        "bogus_key": 1})
        msg = str(e.value)
        for frag in ("K must be", "rounds must be", "E must be", "bogus_key"):
            assert frag in msg

    def test_preset_beta_expansion(self):
        for name, beta in PRESETS.items():
            cfg = FederationConfig.from_dict({
                "preset": name, "objective": {"kind": "quadratic_random"}})
            rates = cfg.rates()
            assert rates.beta1 == beta
            assert rates.beta2 == pytest.approx(beta * beta, rel=1e-15)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            FederationConfig.from_dict({"preset": "imagenet",
                                        "objective": {"kind": "quadratic_random"}})

    def test_explicit_rates_override_square_rule(self):
        cfg = FederationConfig.from_dict({"beta1": 0.2, "beta2": 0.05,
                                          "objective": {"kind": "quadratic_random"}})
        assert (cfg.rates().beta1, cfg.rates().beta2) == (0.2, 0.05)

    def test_alpha_domain_with_bound_checks(self):
        with pytest.raises(ConfigError, match="4\\*alpha"):
            FederationConfig.from_dict({"alpha": 0.6, "check_bounds": True,
                                        "objective": {"kind": "quadratic_random"}})

    def test_bound_checks_need_alpha(self):
        with pytest.raises(ConfigError, match="4\\*alpha"):
            FederationConfig.from_dict({"check_bounds": True,
                                        "objective": {"kind": "quadratic_random"}})

    def test_file_overrides_validated(self, tmp_path):
        path, _ = write_config(tmp_path, n_seeds=4)
        cfg = FederationConfig.from_file(path, {"seed": 5, "n_seeds": 3})
        assert (cfg.seed, cfg.n_seeds) == (5, 3)
        assert FederationConfig.from_file(path).n_seeds == 4
        with pytest.raises(ConfigError, match="n_seeds must be >= 1"):
            FederationConfig.from_file(path, {"n_seeds": 0})
        with pytest.raises(ConfigError, match="4\\*alpha"):
            FederationConfig.from_file(path, {"alpha": 0.5, "check_bounds": True})


class TestRunFl:
    def test_zero_rounds_header_only(self, tmp_path):
        path, out = write_config(tmp_path, rounds=0)
        assert main(["run-fl", "--config", str(path)]) == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines == ["round,global_loss,divergence,loss_0,loss_1,loss_2"]

    def test_byte_identical_reruns(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["run-fl", "--config", str(path)]) == 0
        first = (out / "metrics.csv").read_bytes()
        assert main(["run-fl", "--config", str(path),
                     "--out", str(tmp_path / "out2")]) == 0
        assert (tmp_path / "out2" / "metrics.csv").read_bytes() == first

    def test_preset_recorded_in_manifest(self, tmp_path):
        path, out = write_config(tmp_path, preset="cifar10", beta1=None,
                                 beta2=None)
        cfg = json.loads(path.read_text())
        del cfg["beta1"], cfg["beta2"]
        path.write_text(json.dumps(cfg))
        assert main(["run-fl", "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["beta1"] == 0.15
        assert manifest["beta2"] == pytest.approx(0.0225, rel=1e-15)

    def test_invalid_config_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run-fl", "--config", str(path)]) == 1

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["run-fl", "--config", str(tmp_path / "absent.json")]) == 1

    def test_seed_override_changes_manifest(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["run-fl", "--config", str(path), "--seed", "999"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 999

    def test_checkpoints_written(self, tmp_path):
        path, out = write_config(tmp_path, checkpoint_every=2)
        assert main(["run-fl", "--config", str(path)]) == 0
        assert (out / "checkpoint_00001.json").exists()
        assert (out / "checkpoint_00003.json").exists()
        assert (out / "checkpoint_final.json").exists()
        final = json.loads((out / "checkpoint_final.json").read_text())
        cadence = json.loads((out / "checkpoint_00003.json").read_text())
        assert final == cadence   # round 3 is the last of 4 rounds

    def test_zero_rounds_with_checkpoints(self, tmp_path):
        path, out = write_config(tmp_path, rounds=0, checkpoint_every=2)
        assert main(["run-fl", "--config", str(path)]) == 0
        final = json.loads((out / "checkpoint_final.json").read_text())
        assert final == [[[0.0]] * 8]   # the zero initial model, layout [[8, 1]]
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines == ["round,global_loss,divergence,loss_0,loss_1,loss_2"]
        assert not list(out.glob("checkpoint_0*.json"))


class TestVerifyBounds:
    def test_compliant_regime_passes(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["verify-bounds", "--config", str(path)]) == 0
        lines = (out / "bounds.csv").read_text().strip().split("\n")
        assert lines[0] == "round,client,dist_sq,lower,upper,holds"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_alpha_out_of_domain_exit_1(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, alpha=0.6, check_bounds=False)
        assert main(["verify-bounds", "--config", str(path)]) == 1
        assert "4*alpha" in capsys.readouterr().err

    def test_missing_alpha_exit_1(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        del cfg["alpha"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify-bounds", "--config", str(path)]) == 1

    def test_noncompliant_violations_informational(self, tmp_path):
        # beta2 = 2*alpha with untied lagged gradients: bound broken, but
        # outside the guaranteed regime that is a logged finding, not an error
        path, out = write_config(tmp_path, beta2=0.2, tie_gradients=False,
                                 rounds=20, E=3)
        assert main(["verify-bounds", "--config", str(path)]) == 0
        lines = (out / "bounds.csv").read_text().strip().split("\n")[1:]
        assert any(line.endswith(",0") for line in lines)


class TestRunAttack:
    def test_unknown_tag_exit_1(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["run-attack", "--config", str(path),
                     "--attack", "bogus"]) == 1
        err = capsys.readouterr().err
        for tag in ("lia", "mia", "ir"):
            assert tag in err

    def test_lia_writes_csv(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["run-attack", "--config", str(path), "--attack", "lia"]) == 0
        lines = (out / "attacks.csv").read_text().strip().split("\n")
        assert lines[0] == "attack,setting,metric,member,nonmember"
        assert lines[1].startswith("lia,,label_count_error,")

    def test_tag_from_config(self, tmp_path):
        path, out = write_config(tmp_path, attack={"tag": "lia"})
        assert main(["run-attack", "--config", str(path)]) == 0
        assert (out / "attacks.csv").exists()


class TestConvergenceCommand:
    def test_single_seed_labeled(self, tmp_path, capsys):
        path, out = write_config(tmp_path, rounds=6)
        assert main(["convergence", "--config", str(path), "--seeds", "1"]) == 0
        assert "single-seed (not an expectation)" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["single_seed_note"] == "single-seed (not an expectation)"
        csv_lines = (out / "report.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "T,gap,bound,divergence,divergence_bound"

    def test_near_boundary_alpha_ok(self, tmp_path):
        path, _ = write_config(tmp_path, alpha=0.49, beta1=0.49, beta2=0.3,
                               rounds=4)
        assert main(["convergence", "--config", str(path), "--seeds", "2"]) == 0

    def test_missing_alpha_exit_1(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        del cfg["alpha"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["convergence", "--config", str(path)]) == 1

    def test_zero_rounds_exit_1(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, rounds=0)
        assert main(["convergence", "--config", str(path), "--seeds", "1"]) == 1
        assert "rounds >= 1" in capsys.readouterr().err

    def test_manifest_records_bound_checks(self, tmp_path):
        path, out = write_config(tmp_path, rounds=2)
        assert main(["convergence", "--config", str(path), "--seeds", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["check_bounds"] is True


CLASSIFIER = {"kind": "classifier", "architecture": [[4, 6, "relu"], [6, 3, "linear"]]}


@pytest.mark.parametrize("argv,overrides", [
    (["--seeds", "0"], {}),
    (["--seeds", "-2"], {}),
    ([], {"objective": CLASSIFIER, "mu": 1.0}),
], ids=["seeds-0", "seeds-negative", "classifier-objective"])
def test_convergence_inputs_exit_1(tmp_path, capsys, argv, overrides):
    path, _ = write_config(tmp_path, **overrides)
    assert main(["convergence", "--config", str(path), *argv]) == 1
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("command,alpha", [("run-fl", -0.1), ("convergence", 0.6),
                                           ("convergence", -0.1)])
def test_alpha_out_of_domain_exit_1(tmp_path, command, alpha):
    path, _ = write_config(tmp_path, alpha=alpha)
    assert main([command, "--config", str(path)]) == 1


@pytest.mark.parametrize("command", ["run-fl", "verify-bounds"])
def test_overflowed_envelope_exit_2(tmp_path, capsys, command):
    # the dispatched models stay finite, but their squared distance overflows
    path, _ = write_config(tmp_path, K=2, beta1=1e300, beta2=1e300, tie_gradients=False,
                           objective={**base_config(tmp_path)["objective"], "sigma": 0.3})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
        assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "round 2, client 0: non-finite envelope quantity" in err


def test_diverging_classifier_exit_2(tmp_path, capsys):
    # eta_0 = 2/(1e-300 * 8): the first steps push the weights past overflow
    path, _ = write_config(tmp_path, objective={**CLASSIFIER, "architecture": [
        [4, 6, "sigmoid"], [6, 3, "linear"]]}, K=2, E=3, batch_size=4, mu=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
        assert main(["run-fl", "--config", str(path)]) == 2
    assert "runtime divergence" in capsys.readouterr().err


@pytest.mark.parametrize("objective", [
    {"kind": "quadratic_random", "dim": 8, "eig_range": [-1, 2]},
    {"kind": "quadratic_random", "dim": 0},
    {"kind": "quadratic", "clients": [{"center": [0.0, 0.0]}] * 3},
    {"kind": "classifier", "architecture": [[2, 3, "relu"], [3, 2, "relu"]]},
    {"kind": "quadratic", "clients": [
        {"center": [0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 1.0]},
        {"center": [0.0, 0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]},
        {"center": [0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 1.0]}]},
    {**CLASSIFIER, "dataset": "x"},
    {**CLASSIFIER, "dataset": {"n": 1e400}},
], ids=["indefinite-matrix", "zero-dim", "missing-matrix", "nonlinear-last-layer",
        "mixed-dimensions", "non-object-dataset", "infinite-dataset-n"])
def test_objective_construction_errors_exit_1(tmp_path, capsys, objective):
    path, _ = write_config(tmp_path, objective=objective)
    assert main(["run-fl", "--config", str(path)]) == 1
    assert "invalid configuration" in capsys.readouterr().err


def test_empty_classifier_dataset_exit_1(tmp_path, capsys):
    # rejected when the objectives are built, not by a crash in round 0
    path, _ = write_config(tmp_path, objective={**CLASSIFIER, "dataset": {"n": 0}}, mu=1.0)
    assert main(["run-fl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "Traceback" not in err


def test_client_admission_error_exit_1(tmp_path, capsys, monkeypatch):
    # RunPlan admits the clients; a config whose objectives it rejects (here
    # two kinds, which no objective spec builds today) exits 1, not a traceback
    import sbpu.config as config
    from sbpu.objectives import ClassifierObjective

    build = config.build_objectives

    def two_kinds(spec, K, seed):
        objs = build(spec, K, seed)
        x = np.zeros((2, objs[0].dim))
        return objs[:-1] + [ClassifierObjective(architecture=((objs[0].dim, 2, "linear"),),
                                                data_x=x, data_y=np.array([0, 1]))]

    monkeypatch.setattr(config, "build_objectives", two_kinds)
    path, _ = write_config(tmp_path, mu=1.0)
    assert main(["run-fl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "one objective kind" in err


@pytest.mark.parametrize("overrides", [
    {"K": "2"}, {"K": True}, {"n_k": "ab"}, {"n_k": [1, 1.5, 1]}, {"rounds": 2.5},
    {"checkpoint_every": "x"}, {"beta": float("nan")}, {"beta1": float("inf")},
    {"alpha": "0.1"}, {"mu": 0.0}, {"gamma_override": -1.0}, {"tie_gradients": 1},
    {"check_bounds": "yes"}, {"out_dir": 3}, {"preset": ["mnist"]}, {"attack": "lia"},
    {"defense": {"tag": "dp", "epsilon_per_round": float("nan")}},
], ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()))
def test_mistyped_fields_exit_1(tmp_path, capsys, overrides):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**base_config(tmp_path / "out"), **overrides}))
    assert main(["run-fl", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "invalid configuration" in capsys.readouterr().err


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(),
                    st.text(max_size=3))
FUZZ_KEYS = [f.name for f in dataclasses.fields(FederationConfig) if f.name != "objective"]


@pytest.mark.parametrize("command", ["run-fl", "verify-bounds", "convergence"])
@settings(max_examples=50, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS),
                                 st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
                                 max_size=5))
def test_config_fuzz_keeps_exit_code_contract(command, overrides):
    cfg = {"objective": {"kind": "quadratic_random", "dim": 3, "radius": 2.0,
                         "sigma": 0.1, "layout": [[3, 1]]},
           "K": 2, "E": 2, "rounds": 2, "alpha": 0.1, "beta1": 0.1, "beta2": 0.05,
           "seed": 1, **overrides}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(-2 ** 70, 2 ** 70),
                      st.sampled_from([-1, 0, 2 ** 64 - 1, 2 ** 64])),
       on_command_line=st.booleans())
@example(seed=-5, on_command_line=True)
def test_seed_outside_unsigned_64_bit_exit_1(seed, on_command_line):
    cfg = {"objective": {"kind": "quadratic_random", "dim": 3, "radius": 2.0,
                         "sigma": 0.1, "layout": [[3, 1]]},
           "K": 2, "E": 1, "rounds": 1, "seed": 1 if on_command_line else seed}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        argv = ["run-fl", "--config", str(path), "--out", str(Path(tmp) / "out")]
        code = main(argv + (["--seed", str(seed)] if on_command_line else []))
    assert code == (0 if 0 <= seed < 2 ** 64 else 1)


def test_overflowed_divergence_exit_2(tmp_path, capsys):
    # the parameters stay finite, but the clients' squared distances from
    # their mean overflow: the divergence must not reach metrics.csv as inf
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps({
        "objective": {"kind": "classifier", "architecture": [[4, 3, "linear"]],
                      "dataset": {"n": 12, "spread": 5000}},
        "K": 2, "E": 3, "batch_size": 4, "rounds": 4, "mu": 1e-300, "seed": 12,
        "out_dir": str(out)}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
        assert main(["run-fl", "--config", str(path)]) == 2
    assert "runtime divergence" in capsys.readouterr().err
    metrics = out / "metrics.csv"
    assert not metrics.exists() or "inf" not in metrics.read_text()


def test_overflowed_layer_sum_exit_2(tmp_path, capsys):
    # each layer's squared distance from the clients' mean is finite, but
    # their sum overflows: the divergence is inf, not an OverflowError
    path, _ = write_config(tmp_path, objective={**CLASSIFIER, "architecture": [
        [4, 5, "sigmoid"], [5, 3, "linear"]], "dataset": {"n": 16}},
        K=3, E=4, batch_size=4, rounds=3, mu=1e-155, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
        assert main(["run-fl", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "runtime divergence" in err and "Traceback" not in err

import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpu.cli import main
from sbpu.config import PRESETS, ConfigError, FederationConfig


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


@pytest.mark.parametrize("command,alpha", [("run-fl", -0.1), ("convergence", 0.6),
                                           ("convergence", -0.1)])
def test_alpha_out_of_domain_exit_1(tmp_path, command, alpha):
    path, _ = write_config(tmp_path, alpha=alpha)
    assert main([command, "--config", str(path)]) == 1


@pytest.mark.parametrize("objective", [
    {"kind": "quadratic_random", "dim": 8, "eig_range": [-1, 2]},
    {"kind": "quadratic_random", "dim": 0},
    {"kind": "quadratic", "clients": [{"center": [0.0, 0.0]}] * 3},
    {"kind": "classifier", "architecture": [[2, 3, "relu"], [3, 2, "relu"]]},
    {"kind": "quadratic", "clients": [
        {"center": [0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 1.0]},
        {"center": [0.0, 0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]},
        {"center": [0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 1.0]}]},
], ids=["indefinite-matrix", "zero-dim", "missing-matrix", "nonlinear-last-layer",
        "mixed-dimensions"])
def test_objective_construction_errors_exit_1(tmp_path, capsys, objective):
    path, _ = write_config(tmp_path, objective=objective)
    assert main(["run-fl", "--config", str(path)]) == 1
    assert "invalid configuration" in capsys.readouterr().err


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


@settings(max_examples=50, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS),
                                 st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
                                 max_size=5))
def test_config_fuzz_keeps_exit_code_contract(overrides):
    cfg = {"objective": {"kind": "quadratic_random", "dim": 3, "radius": 2.0,
                         "sigma": 0.1, "layout": [[3, 1]]},
           "K": 2, "E": 2, "rounds": 2, "alpha": 0.1, "beta1": 0.1, "beta2": 0.05,
           "seed": 1, **overrides}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
            code = main(["run-fl", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)

import dataclasses
import json
import tempfile
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpu import config
from sbpu import params as P
from sbpu.cli import _write, main
from sbpu.config import PRESETS, ConfigError, FederationConfig
from sbpu.federation import iter_rounds
from sbpu.objectives import ClassifierObjective

# A main() call that builds a classifier cohort sets glibc's mmap and trim
# thresholds to its cap for the rest of the test process
# (federation.tune_malloc); no output depends on them.


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

    @pytest.mark.parametrize("overrides", [{"gamma_override": 1.0}, {"mu": 0.2}])
    def test_schedule_overrides_exit_1(self, tmp_path, capsys, overrides):
        # the report's bounds hold on the objectives' own schedule only
        path, out = write_config(tmp_path, **overrides)
        assert main(["convergence", "--config", str(path), "--seeds", "1"]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "the bounds hold on the schedule" in err
        assert not (out / "report.json").exists()

    def test_singular_combined_matrix_exit_1(self, tmp_path, capsys):
        # the optimum is solved at admission: no traceback, and nothing written
        objective = {"kind": "quadratic", "radius": 1.0, "layout": [[2, 1]], "clients": [
            {"center": [0.0, 0.0], "matrix": [1e-20, 0.0, 0.0, 1.0]},
            {"center": [0.0, 0.0], "matrix": [1e-20, 0.0, 0.0, 2.0]}]}
        path, out = write_config(tmp_path, objective=objective, K=2, E=2, rounds=3, alpha=0.05,
                                 beta1=0.05, beta2=0.04)
        assert main(["convergence", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "numerically singular" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("objective", [{"sigma": 1e308, "radius": 2.0},
                                           {"sigma": 0.1, "radius": 1e308}],
                             ids=["sigma", "radius"])
    def test_overflowing_bound_constants_exit_1(self, tmp_path, capsys, objective):
        # G = L * R + max sigma is finite, G^2 is not: refused at admission, where the
        # report would otherwise hold Infinity, which is not JSON
        path, out = write_config(tmp_path, objective={"kind": "quadratic_random", "dim": 4,
                                                      **objective},
                                 K=2, E=2, rounds=3, alpha=0.05, beta1=0.05, beta2=0.0375,
                                 n_seeds=2)
        assert main(["convergence", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "the bounds overflow" in err
        assert "Traceback" not in err and not out.exists()

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


@pytest.mark.parametrize("argv,overrides,calls", [
    (["run-fl"], {"objective": CLASSIFIER, "mu": 1.0, "rounds": 3}, 3),
    (["convergence", "--seeds", "2"], {"rounds": 3}, 3 * 2),
], ids=["run-fl-classifier", "convergence-quadratic"])
def test_every_round_runs_through_the_module_run_round(tmp_path, monkeypatch, argv, overrides,
                                                      calls):
    # the benchmark times its unit by wrapping sbpu.federation.run_round
    # (bench/hooks.py); a round that bypasses the module attribute goes untimed
    from sbpu import federation
    counted, run_round = [], federation.run_round

    def counting(*args, **kwargs):
        counted.append(1)
        return run_round(*args, **kwargs)

    monkeypatch.setattr(federation, "run_round", counting)
    path, _ = write_config(tmp_path, **overrides)
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
    assert len(counted) == calls


@pytest.mark.parametrize("command", ["run-fl", "verify-bounds", "run-attack", "convergence"])
def test_uncreatable_out_dir_exit_1(tmp_path, capsys, monkeypatch, command):
    # --out under a regular file: mkdir fails, and no round runs
    from sbpu import federation
    monkeypatch.setattr(federation, "run_round", lambda *a, **k: pytest.fail("a round ran"))
    path, _ = write_config(tmp_path)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    extra = ["--attack", "lia"] if command == "run-attack" else []
    assert main([command, "--config", str(path), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and f"out_dir: cannot create {str(out)!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,name", [
    ("run-fl", "manifest.json"), ("run-fl", "metrics.csv"), ("run-fl", "bounds.csv"),
    ("run-fl", "checkpoint_00001.json"), ("run-fl", "checkpoint_final.json"),
    ("verify-bounds", "manifest.json"), ("verify-bounds", "bounds.csv"),
    ("run-attack", "manifest.json"), ("run-attack", "attacks.csv"),
    ("convergence", "manifest.json"), ("convergence", "report.json"),
    ("convergence", "report.csv"),
])
def test_unwritable_output_file_exit_1(tmp_path, capsys, command, name):
    # a directory where the output file goes: opening it fails, wherever the
    # command writes it, and the message names the file
    path, out = write_config(tmp_path, checkpoint_every=2)
    (out / name).mkdir(parents=True)
    extra = ["--attack", "lia"] if command == "run-attack" else []
    assert main([command, "--config", str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and f"cannot write {str(out / name)!r}" in err
    assert "Traceback" not in err


def test_checkpoint_is_written_a_row_at_a_time(tmp_path):
    # a 784-128-10 model (101,770 parameters): its text through dump_json
    # alone peaks at about 9 MiB
    obj = ClassifierObjective(architecture=((784, 128, "relu"), (128, 10, "linear")))
    w = obj.init_params(np.random.default_rng(2))
    path = tmp_path / "checkpoint_final.json"
    tracemalloc.start()
    try:
        _write(path, partial(P.write_json, w), "\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert path.read_text() == P.dump_json(w) + "\n"
    assert P.load_json(path.read_text()) == w


@pytest.mark.parametrize("level", ["bogus", "5"])
def test_unknown_log_level_exit_1(tmp_path, capsys, monkeypatch, level):
    # checked before the arguments: no output directory is created
    monkeypatch.setenv("SBPU_LOG", level)
    path, out = write_config(tmp_path)
    assert main(["convergence", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"SBPU_LOG: unknown logging level {level!r}" in err
    assert "DEBUG, INFO, WARNING, ERROR or CRITICAL" in err and "Traceback" not in err
    assert not out.exists()


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
    # the first non-finite trained row, named by round, client and local iteration
    assert ("runtime divergence: round 0, client 0, local iteration 1: non-finite value "
            "in parameters") in capsys.readouterr().err


@pytest.mark.parametrize("objective,field", [
    ({"kind": "quadratic_random", "dim": 8, "eig_range": [-1, 2]}, None),
    ({"kind": "quadratic_random", "dim": 0}, None),
    ({"kind": "quadratic", "clients": [{"center": [0.0, 0.0]}] * 3}, None),
    ({"kind": "classifier", "architecture": [[2, 3, "relu"], [3, 2, "relu"]]}, None),
    ({"kind": "quadratic", "clients": [
        {"center": [0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 1.0]},
        {"center": [0.0, 0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]},
        {"center": [0.0, 0.0], "matrix": [1.0, 0.0, 0.0, 1.0]}]}, None),
    ({**CLASSIFIER, "dataset": "x"}, None),
    ({**CLASSIFIER, "dataset": {"n": 1e400}}, None),
    # numpy refuses a 71 PiB matrix, past the 47-bit address space, before
    # touching a page, whatever the overcommit setting
    ({"kind": "quadratic_random", "dim": 100_000_000}, None),
    # 1e400 parses as inf: a bad config, not a runtime divergence or NaN bounds
    ({**base_config("")["objective"], "radius": 1e400}, "radius"),
    ({**base_config("")["objective"], "sigma": 1e400}, "sigma"),
    ({"kind": "quadratic", "clients": [{"center": [1e400], "matrix": [1.0]}] * 3},
     "clients[0]: center"),
    ({**base_config("")["objective"], "center_spread": 1e400}, "center"),
    ({**CLASSIFIER, "dataset": {"spread": 1e400}}, "dataset: spread"),
    # each of these once ran something other than what it says
    ({**base_config("")["objective"], "center_sprad": 0.5}, "unknown key 'center_sprad'"),
    ({**base_config("")["objective"], "shared_matrix": "false"}, "shared_matrix"),
    ({**base_config("")["objective"], "dim": 3.9}, "dim"),
    ({**base_config("")["objective"], "dim": "3"}, "dim"),
    ({**base_config("")["objective"], "dim": True}, "dim"),
    ({**CLASSIFIER, "dataset": {"n": 8.7}}, "dataset: n"),
    ({**CLASSIFIER, "architecture": [[4.7, 3, "linear"]]}, "architecture"),
    ({**base_config("")["objective"], "layout": [[3, 1.5]]}, "layout"),
    ({**base_config("")["objective"], "sigma": "0.1"}, "sigma"),
    ({"kind": "quadratic", "clients": [{"center": [0.0], "matrix": [1.0], "sigmaa": 3}] * 3},
     "clients[0]: unknown key 'sigmaa'"),
], ids=["indefinite-matrix", "zero-dim", "missing-matrix", "nonlinear-last-layer",
        "mixed-dimensions", "non-object-dataset", "infinite-dataset-n", "unallocatable-dim",
        "infinite-radius", "infinite-sigma", "infinite-center", "infinite-center-spread",
        "infinite-dataset-spread", "misspelt-center-spread", "string-shared-matrix",
        "fractional-dim", "string-dim", "boolean-dim", "fractional-dataset-n",
        "fractional-architecture", "fractional-layout", "string-sigma", "misspelt-client-sigma"])
def test_objective_construction_errors_exit_1(tmp_path, capsys, objective, field):
    path, _ = write_config(tmp_path, objective=objective)
    assert main(["run-fl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and (field is None or f"objective: {field}" in err)


def test_every_malformed_client_entry_reported(tmp_path, capsys):
    clients = [{"center": [0.0], "matrix": [1.0], "sigmaa": 3}, {"center": [0.0]},
               {"center": 0.5, "matrix": [1.0]}]
    path, _ = write_config(tmp_path, objective={"kind": "quadratic", "clients": clients})
    assert main(["run-fl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "objective: clients[" in line] == [
        "  - objective: clients[0]: unknown key 'sigmaa'",
        "  - objective: clients[1]: missing key 'matrix'",
        "  - objective: clients[2]: center must be list[float], got 0.5"]


def test_objective_spec_checked_with_the_top_level(tmp_path, capsys, monkeypatch):
    # checked against its builder's signature, before and without building it
    spec = {"kind": "quadratic_random", "bogus": 1}
    path, _ = write_config(tmp_path, objective=spec)
    assert main(["run-attack", "--config", str(path), "--attack", "lia"]) == 1
    assert "objective: unknown key 'bogus'" in capsys.readouterr().err
    path, _ = write_config(tmp_path, objective=spec, K=0)
    assert main(["run-fl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "K must be >= 1" in err and "objective: unknown key 'bogus'" in err
    streams = []
    monkeypatch.setattr(config.seeds, "stream", lambda *keys: streams.append(keys))
    FederationConfig.from_dict({"objective": {"kind": "quadratic_random", "dim": 3}})
    assert streams == []


def test_empty_classifier_dataset_exit_1(tmp_path, capsys):
    # rejected when the objectives are built, not by a crash in round 0
    path, _ = write_config(tmp_path, objective={**CLASSIFIER, "dataset": {"n": 0}}, mu=1.0)
    assert main(["run-fl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "Traceback" not in err


@pytest.mark.parametrize("batch_size", [2 ** 40, 2 ** 62])
def test_unallocatable_batch_size_exit_1(tmp_path, capsys, batch_size):
    # a round's batch indices that no allocation (2**40) or no array (2**62) can
    # hold: a config error, not a numpy traceback
    path, _ = write_config(tmp_path, objective=CLASSIFIER, mu=1.0, batch_size=batch_size)
    assert main(["run-fl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and "Traceback" not in err
    assert ("does not fit in memory" if batch_size < 2 ** 60 else "too many to draw") in err
    assert "objective: " not in err   # admission is not about the objective spec


def test_batch_larger_than_dataset_runs(tmp_path):
    # batches sample with replacement, so batch_size may exceed the dataset
    path, out = write_config(tmp_path, objective={**CLASSIFIER, "dataset": {"n": 5}}, mu=1.0,
                             batch_size=64)
    assert main(["run-fl", "--config", str(path)]) == 0
    assert (out / "metrics.csv").exists()


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
    assert "objective: " not in err   # admission is not about the objective spec


@pytest.mark.parametrize("rounds", [2 ** 60, 2 ** 62, 2 ** 63])
def test_unrecordable_convergence_rounds_exit_1(tmp_path, capsys, rounds):
    # rounds * E steps whose divergence series no float64 array can hold: a
    # config error, not numpy's ValueError from the series' allocation
    path, _ = write_config(tmp_path, rounds=rounds, E=1)
    assert main(["convergence", "--config", str(path), "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid configuration:",
                                f"  - rounds * E = {rounds}: too many steps to record"]


@pytest.mark.parametrize("defense,rounds", [
    ({"clip": 1e308, "epsilon_per_round": 1.0}, 4),
    ({"epsilon_per_round": 1e-308}, 4),
    ({"epsilon_per_round": 1e-308}, 0),
], ids=["huge-clip", "tiny-epsilon", "tiny-epsilon-no-rounds"])
def test_overflowing_dp_noise_exit_1(tmp_path, capsys, defense, rounds):
    # an infinite noise std is a config error, not a run of inf parameters
    path, _ = write_config(tmp_path, rounds=rounds, defense={"tag": "dp", **defense})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run-fl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and "  - defense: dp noise std" in err


@pytest.mark.parametrize("overrides", [
    {"K": "2"}, {"K": True}, {"n_k": "ab"}, {"n_k": [1, 1.5, 1]}, {"rounds": 2.5},
    {"checkpoint_every": "x"}, {"beta": float("nan")}, {"beta1": float("inf")},
    {"alpha": "0.1"}, {"mu": 0.0}, {"gamma_override": -1.0}, {"tie_gradients": 1},
    {"check_bounds": "yes"}, {"out_dir": 3}, {"preset": ["mnist"]}, {"attack": "lia"},
    {"defense": {"tag": "dp", "epsilon_per_round": float("nan")}},
    {"checkpoint_every": -3},
    {"defense": {"tag": "dp", "epsilon_per_round": 1.0, "clipp": 5}},
    {"defense": {"tag": "gc", "prune_fraction": "0.5"}},
    {"defense": {"tag": "dp", "epsilon_per_round": True}},
    {"beta": 1e200, "beta1": None, "beta2": None},   # beta ** 2, the default beta2, is inf
    {"attack": {"tag": "lia", "bs": 5}},
], ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()))
def test_mistyped_fields_exit_1(tmp_path, capsys, overrides):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**base_config(tmp_path / "out"), **overrides}))
    assert main(["run-fl", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("argv,overrides,named", [
    (["run-fl"], {"beta": 1e200, "beta1": None, "beta2": None}, "beta = 1e+200"),
    (["run-fl"], {"attack": {"tag": "lia", "bs": 5}}, "attack: unknown key 'bs'"),
    (["run-attack"], {"attack": {"tag": "lia", "bs": 5}}, "attack: unknown key 'bs'"),
    (["run-attack", "--attack", "lia"], {"attack": {"tag": "lia", "bs": 5}},
     "attack: unknown key 'bs'"),
    (["run-attack", "--attack", "lia"], {"attack": {"tag": 3}}, "attack: tag must be"),
], ids=["overflowing-beta", "attack-run-fl", "attack-run-attack", "attack-given-tag",
        "attack-numeric-tag"])
def test_violation_names_its_key_exit_1(tmp_path, capsys, argv, overrides, named):
    path, _ = write_config(tmp_path, **overrides)
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and named in err


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


OBJECTIVE_KEYS = {
    "quadratic": ["clients", "radius", "layout"],
    "quadratic_random": ["dim", "eig_range", "center_spread", "radius", "sigma",
                         "shared_matrix", "layout"],
    "classifier": ["architecture", "dataset"],
}
OBJECTIVES = {
    "quadratic": {"kind": "quadratic", "clients": [{"center": [0.5], "matrix": [2.0]}] * 2},
    "quadratic_random": {"kind": "quadratic_random", "dim": 3, "radius": 2.0, "sigma": 0.1},
    "classifier": {"kind": "classifier", "architecture": [[3, 2, "linear"]],
                   "dataset": {"n": 4}},
}
OBJECTS = st.dictionaries(st.sampled_from(["n", "spread", "center", "matrix", "sigma", "x"]),
                          st.one_of(SCALARS, st.lists(SCALARS, max_size=3)), max_size=3)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                   st.lists(st.lists(SCALARS, max_size=3), max_size=2),
                   OBJECTS, st.lists(OBJECTS, min_size=2, max_size=2))


def _fuzz_run(argv, cfg) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
            return main([argv[0], "--config", str(path), *argv[1:], "--out", str(Path(tmp) / "o")])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(OBJECTIVE_KEYS)))
def test_objective_fuzz_keeps_exit_code_contract(data, kind):
    keys = OBJECTIVE_KEYS[kind] + ["bogus"]
    spec = {**OBJECTIVES[kind], **data.draw(st.dictionaries(st.sampled_from(keys), VALUES,
                                                            max_size=3))}
    cfg = {"objective": spec, "K": 2, "E": 1, "batch_size": 2, "rounds": 1, "mu": 1.0,
           "alpha": 0.1, "beta1": 0.1, "beta2": 0.05, "seed": 1}
    assert _fuzz_run(["run-fl"], cfg) in (0, 1, 2, 3)


@settings(max_examples=30, deadline=None)
@given(attack=st.one_of(SCALARS, st.dictionaries(st.sampled_from(["tag", "bogus"]), SCALARS,
                                                 max_size=2)))
def test_attack_fuzz_keeps_exit_code_contract(attack):
    cfg = {"objective": {"kind": "quadratic_random"}, "attack": attack, "seed": 1}
    assert _fuzz_run(["run-attack", "--attack", "lia"], cfg) in (0, 1)


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


def test_overflowed_global_loss_exit_2(tmp_path, capsys):
    # each client lands on its center, +-1e154, and the aggregate at 0 has
    # loss 0.5 * 10 * 1e308 = 5e308 on each: the global loss overflows
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps({
        "objective": {"kind": "quadratic", "radius": 1e300, "clients": [
            {"center": [1e154], "matrix": [10.0]}, {"center": [-1e154], "matrix": [10.0]}]},
        "K": 2, "E": 1, "rounds": 1, "mu": 10.0, "gamma_override": 2.0, "seed": 3,
        "out_dir": str(out)}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
        assert main(["run-fl", "--config", str(path)]) == 2
    assert "round 0: non-finite global loss inf" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_overflowed_dispatched_models_exit_2(tmp_path, capsys):
    # beta1 = beta2 = 1e308: the mutation's branch update overflows in round 0
    path, _ = write_config(tmp_path, beta1=1e308, beta2=1e308, tie_gradients=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
        assert main(["run-fl", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "runtime divergence: round 0: non-finite value in the dispatched models" in err


def test_overflowed_aggregate_exit_2(tmp_path, capsys):
    # a finite dp noise std of 4.8e307: the clients' defended uploads stay
    # finite, but their weighted mean overflows
    path, _ = write_config(tmp_path, objective={**base_config(tmp_path)["objective"], "dim": 64,
                                                "layout": [[64, 1]]}, K=4, seed=1,
                           defense={"tag": "dp", "epsilon_per_round": 1e-307, "clip": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # numpy overflow notices
        assert main(["run-fl", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "runtime divergence: round 0: non-finite value in the new aggregate" in err


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


@pytest.mark.xfail(strict=True, reason="build_plan starts classifier runs at the all-zero "
                   "template: relu and lrelu hidden layers get zero gradients and never move")
@pytest.mark.parametrize("act", ["relu", "lrelu"])
def test_classifier_run_moves_hidden_weights_off_zero(act):
    cfg = FederationConfig.from_dict({
        "objective": {"kind": "classifier", "architecture": [[32, 64, act], [64, 10, "linear"]]},
        "K": 4, "E": 5, "batch_size": 32, "rounds": 30, "beta1": 0.1, "beta2": 0.075,
        "mu": 1.0, "gamma_override": 20.0, "seed": 3})
    *_, (h, _) = iter_rounds(cfg.build_plan())
    assert np.count_nonzero(h.w_glb.layers[0].filters) > 0

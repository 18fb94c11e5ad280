"""The benchmark's workloads: sbpu configs and CLI invocations made from a seed.

Each workload is a fixed amount of work, run by one worker process as a
sequence of `sbpu.cli.main` invocations.  The workload seed only picks the
master seed written into the generated configs, so every seed does the same
amount of work on different random data; sbpu itself never sees the
benchmark's seed.
"""

from __future__ import annotations

import hashlib

# The unit of work the end-to-end timer measures.  It must be short and
# repeated thousands of times per run (see README.md), so on `attacks` it is
# one gradient evaluation of an attack model.  mia, which makes almost all
# of them inside its Adam loops, runs first.
UNIT = {"quad-mc": "round", "clf-dp": "round", "attacks": "grad"}
WORKLOADS = tuple(UNIT)

QUAD_MC_ROUNDS = 1500
CLF_DP_ROUNDS = 40
CLF_DP_CHECKPOINT_EVERY = 10
ATTACKS = ("mia", "lia", "ir")


def master_seed(workload: str, seed: int) -> int:
    """The sbpu master seed for a workload seed (unsigned 32-bit)."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _quad_mc(s: int) -> dict:
    # The AC-06 acceptance config, one Monte-Carlo seed.
    return {
        "objective": {"kind": "quadratic_random", "dim": 16,
                      "eig_range": [1.0, 2.0], "center_spread": 0.3,
                      "radius": 4.0, "sigma": 0.1, "layout": [[16, 1]]},
        "K": 4, "E": 2, "rounds": QUAD_MC_ROUNDS, "alpha": 0.05,
        "beta1": 0.05, "beta2": 0.0375, "tie_gradients": True,
        "n_seeds": 1, "seed": s,
    }


def _clf_dp(s: int) -> dict:
    return {
        "objective": {"kind": "classifier",
                      "architecture": [[32, 64, "relu"], [64, 10, "linear"]],
                      "dataset": {"n": 256}},
        "K": 8, "E": 5, "batch_size": 32, "rounds": CLF_DP_ROUNDS,
        "defense": {"tag": "dp", "epsilon_per_round": 50.0, "clip": 1.0},
        "alpha": 0.1, "beta1": 0.1, "beta2": 0.075,
        "mu": 1.0, "gamma_override": 20.0,
        "checkpoint_every": CLF_DP_CHECKPOINT_EVERY, "seed": s,
    }


def _attacks(s: int) -> dict:
    # run-attack reads only the seed; the objective is required by the schema.
    return {"objective": {"kind": "quadratic_random"}, "seed": s}


def plan(workload: str, seed: int) -> dict:
    """Configs (file name -> JSON object) and the invocations that use them.

    Paths are relative to the worker's directory; each invocation names the
    output files it must write, apart from manifest.json, which embeds the
    output path and is therefore not compared.
    """
    if workload not in UNIT:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    s = master_seed(workload, seed)
    if workload == "quad-mc":
        configs = {"quad-mc.json": _quad_mc(s)}
        invocations = [{"argv": ["convergence", "--config", "../quad-mc.json",
                                 "--out", "out/convergence"],
                        "out": "out/convergence",
                        "outputs": ["report.csv", "report.json"]}]
    elif workload == "clf-dp":
        configs = {"clf-dp.json": _clf_dp(s)}
        checkpoints = [f"checkpoint_{r:05d}.json"
                       for r in range(CLF_DP_CHECKPOINT_EVERY - 1, CLF_DP_ROUNDS,
                                      CLF_DP_CHECKPOINT_EVERY)]
        invocations = [{"argv": ["run-fl", "--config", "../clf-dp.json",
                                 "--out", "out/run-fl"],
                        "out": "out/run-fl",
                        "outputs": sorted(["metrics.csv", "bounds.csv",
                                           "checkpoint_final.json", *checkpoints])}]
    else:
        configs = {"attacks.json": _attacks(s)}
        invocations = [{"argv": ["run-attack", "--config", "../attacks.json",
                                 "--attack", tag, "--out", f"out/{tag}"],
                        "out": f"out/{tag}",
                        "outputs": ["attacks.csv"]} for tag in ATTACKS]
    return {"unit": UNIT[workload], "configs": configs, "invocations": invocations}

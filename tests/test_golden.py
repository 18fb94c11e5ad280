"""Pinned output bytes: small configs through cli.main against tests/golden.json.

Each case runs one command and hashes every file it writes except
manifest.json, which embeds the output path.  The engine's bits rest on
numpy's kernels, so the digests hold for the numpy version they were
recorded with, and on any other the test skips.  Record only from a commit
whose outputs are known to be right:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sbpu.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

QUAD = {"kind": "quadratic_random", "dim": 6, "eig_range": [1.0, 3.0], "center_spread": 0.5,
        "radius": 3.0, "sigma": 0.2, "layout": [[3, 2]]}
RATES = {"alpha": 0.1, "beta1": 0.1, "beta2": 0.08}


EXPLICIT = {"kind": "quadratic", "radius": 2.0, "layout": [[2, 1]], "clients": [
    {"center": [0.5, -0.2], "matrix": [2.0, 0.3, 0.3, 1.0], "sigma": 0.1},
    {"center": [-1, 0], "matrix": [2, 0, 0, 3]},
    {"center": [0.0, 0.3], "matrix": [1.0, -0.2, -0.2, 1.2], "sigma": 0.3}]}


def _clf(act: str, dataset: dict | None = None, n_c: int = 3, **kw) -> dict:
    return {"objective": {"kind": "classifier", "architecture": [[4, 8, act], [8, n_c, "linear"]],
                          "dataset": dataset or {"n": 24}},
            "K": 3, "E": 2, "batch_size": 4, "rounds": 3, "mu": 1.0, **kw}


# case -> (command and flags, config)
CASES = {
    "verify-bounds-tied": (["verify-bounds"], {
        "objective": QUAD, "K": 3, "E": 2, "rounds": 4, "tie_gradients": True, **RATES}),
    "run-fl-untied-checkpoints": (["run-fl"], {
        "objective": QUAD, "K": 3, "E": 2, "rounds": 4, "checkpoint_every": 2, **RATES}),
    "run-fl-E1-sigma0": (["run-fl"], {
        "objective": {**QUAD, "sigma": 0.0}, "K": 2, "E": 1, "rounds": 3, **RATES}),
    "run-fl-uncertified": (["run-fl"], {   # 0.5 * L * R^2 overflows: no loss certificate
        "objective": {**QUAD, "radius": 1e160}, "K": 3, "E": 3, "rounds": 3, **RATES}),
    "run-fl-clf-relu-dp": (["run-fl"], _clf("relu", alpha=0.1, beta1=0.1, beta2=0.05, defense={
        "tag": "dp", "epsilon_per_round": 50.0, "clip": 2.0})),
    "run-fl-clf-sigmoid-gc": (["run-fl"], _clf("sigmoid", beta=0.05, defense={
        "tag": "gc", "prune_fraction": 0.3})),
    "run-fl-clf-lrelu-checkpoints": (["run-fl"], _clf("lrelu", beta=0.05, checkpoint_every=1)),
    "convergence-2-seeds": (["convergence", "--seeds", "2"], {
        "objective": QUAD, "K": 3, "E": 2, "rounds": 5, "tie_gradients": True, **RATES}),
    "run-fl-explicit-quadratic": (["run-fl"], {
        "objective": EXPLICIT, "K": 3, "E": 2, "rounds": 4, **RATES}),
    "run-fl-shared-matrix-sigma-list": (["run-fl"], {
        "objective": {**QUAD, "shared_matrix": True, "sigma": [0.1, 0, 0.3]},
        "K": 3, "E": 2, "rounds": 4, **RATES}),
    "run-fl-clf-spread": (["run-fl"], _clf("relu", {"n": 20, "spread": 0.4}, beta=0.05)),
    "run-fl-clf-10-classes": (["run-fl"], _clf("relu", n_c=10, beta=0.05)),
    "run-fl-clf-130-classes": (["run-fl"], _clf("lrelu", n_c=130, beta=0.05)),   # > 128 columns
    "run-attack-lia": (["run-attack", "--attack", "lia"], {"objective": QUAD}),
    "run-attack-mia": (["run-attack", "--attack", "mia"], {"objective": QUAD}),
    "run-attack-ir": (["run-attack", "--attack", "ir"], {"objective": QUAD}),
}


def digests(case: str, tmp: Path) -> dict[str, str]:
    """SHA-256 of each file the case writes, manifest.json aside."""
    argv, cfg = CASES[case]
    path, out = tmp / f"{case}.json", tmp / case
    path.write_text(json.dumps({**cfg, "seed": 7, "out_dir": str(out)}))
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.name != "manifest.json"}


def _golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {golden['numpy']}, running numpy "
                    f"{np.__version__}")
    return golden["cases"]


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_golden(case, tmp_path):
    assert digests(case, tmp_path) == _golden()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        cases = {case: digests(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "cases": cases},
                                 indent=1, sort_keys=True) + "\n")

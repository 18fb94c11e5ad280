"""Command-line front end.

Subcommands: run-fl (federation run with metrics, checkpoints, manifest),
verify-bounds (neighborhood-bound audit), run-attack (lia / mia / ir),
convergence (Monte-Carlo gap and divergence measurement against the
closed-form bounds).

Exit codes: 0 ok, 1 configuration error, 2 runtime divergence (a non-finite
loss or parameter value), 3 bound violation in the guaranteed regime.  Set
SBPU_LOG to a logging level name (e.g. DEBUG) for verbose progress output.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import params as P
from .attacks import ir_experiment, lia_experiment, mia_experiment
from .config import ConfigError, FederationConfig
from .convergence import (ConvergenceConfig, run_convergence_experiment,
                          write_report_csv, write_report_json)
from .federation import DivergenceError, iter_rounds, run_federation

log = logging.getLogger("sbpu")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_BOUND = 3

ATTACK_TAGS = ("lia", "mia", "ir")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _load(args) -> FederationConfig:
    cfg = FederationConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _outdir(cfg: FederationConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(cfg: FederationConfig, out: Path) -> None:
    with open(out / "manifest.json", "w") as fh:
        json.dump(cfg.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_metrics(records, K: int, out: Path) -> None:
    cols = ["round", "global_loss", "divergence"] + [f"loss_{k}" for k in range(K)]
    lines = [",".join(cols)]
    for rec in records:
        row = [str(rec.round), _fmt6(rec.global_loss), _fmt6(rec.divergence)]
        row += [_fmt6(v) for v in rec.client_losses]
        lines.append(",".join(row))
    with open(out / "metrics.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_bounds(records, out: Path) -> int:
    """bounds.csv from the per-round reports; returns the violation count."""
    lines = ["round,client,dist_sq,lower,upper,holds"]
    violations = 0
    for rec in records:
        for k, b in enumerate(rec.bound_reports):
            lines.append(f"{rec.round},{k},{b.dist_sq:.17g},{b.lower:.17g},"
                         f"{b.upper:.17g},{int(b.holds)}")
            violations += not b.holds
    with open(out / "bounds.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return violations


def cmd_run_fl(args) -> int:
    cfg = _load(args)
    plan = cfg.build_plan()
    out = _outdir(cfg)
    _write_manifest(cfg, out)
    w_final = plan.w_init
    records = []
    for h, rec in iter_rounds(plan):
        records.append(rec)
        w_final = h.w_glb
        if cfg.checkpoint_every > 0 and (rec.round + 1) % cfg.checkpoint_every == 0:
            (out / f"checkpoint_{rec.round:05d}.json").write_text(P.dump_json(w_final) + "\n")
    _write_metrics(records, len(plan.clients), out)
    if plan.alpha is not None:
        _write_bounds(records, out)
    (out / "checkpoint_final.json").write_text(P.dump_json(w_final) + "\n")
    log.info("run-fl: %d rounds -> %s", len(records), out)
    return EXIT_OK


def _require_bound_alpha(cfg: FederationConfig, missing: str) -> None:
    """The closed-form bounds need 0 < alpha < 1/2."""
    if cfg.alpha is None:
        raise ConfigError([missing])
    if not (0.0 < cfg.alpha < 0.5):
        raise ConfigError([f"bound checks need 0 < alpha < 1/2 (1 - 4*alpha^2 "
                           f"must stay positive); got alpha = {cfg.alpha}"])


def cmd_verify_bounds(args) -> int:
    cfg = _load(args)
    _require_bound_alpha(cfg, "verify-bounds needs 'alpha'")
    cfg.check_bounds = True
    plan = cfg.build_plan()
    out = _outdir(cfg)
    _write_manifest(cfg, out)
    records = run_federation(plan)
    violations = _write_bounds(records, out)

    rates = cfg.rates()
    a = cfg.alpha
    compliant = (cfg.tie_gradients and rates.beta1 == a
                 and a / 2.0 <= rates.beta2 <= a)
    checked = sum(len(r.bound_reports) for r in records)
    print(f"{'round':>5} {'violations':>10} {'checked':>8}")
    for rec in records:
        bad = sum(not b.holds for b in rec.bound_reports)
        print(f"{rec.round:>5} {bad:>10} {len(rec.bound_reports):>8}")
    verdict = "PASS" if violations == 0 else "FAIL"
    print(f"total: {violations} violation(s) over {checked} checks "
          f"[{'compliant' if compliant else 'non-compliant'} regime] -> {verdict}")
    if violations and compliant:
        return EXIT_BOUND
    if violations:
        log.warning("bound violations outside the guaranteed regime are informational")
    return EXIT_OK


def _scores_row(attack, setting, metric, member, nonmember) -> str:
    m = _fmt6(member) if member is not None else ""
    n = _fmt6(nonmember) if nonmember is not None else ""
    return f"{attack},{setting},{metric},{m},{n}"


def cmd_run_attack(args) -> int:
    cfg = _load(args)
    tag = args.attack or cfg.attack.get("tag")
    if tag not in ATTACK_TAGS:
        raise ConfigError([f"unknown attack tag {tag!r}; valid tags: "
                           f"{{{', '.join(ATTACK_TAGS)}}}"])
    out = _outdir(cfg)
    _write_manifest(cfg, out)
    rows = ["attack,setting,metric,member,nonmember"]
    if tag == "lia":
        rep = lia_experiment(cfg.seed)
        rows.append(_scores_row("lia", "", "label_count_error",
                                rep.label_count_error, None))
    elif tag == "mia":
        for setting in ("shared", "no_sharing", "chance"):
            rep = mia_experiment(setting, cfg.seed)
            rows.append(_scores_row("mia", setting, "f1", rep.member.f1,
                                    rep.nonmember.f1))
            rows.append(_scores_row("mia", setting, "precision",
                                    rep.member.precision, rep.nonmember.precision))
            rows.append(_scores_row("mia", setting, "recall",
                                    rep.member.recall, rep.nonmember.recall))
            rows.append(_scores_row("mia", setting, "accuracy", rep.accuracy, None))
    else:
        res = ir_experiment(cfg.seed)
        rows.append(_scores_row("ir", "matched", "objective",
                                res["objective_matched"], None))
        rows.append(_scores_row("ir", "mismatched", "objective",
                                res["objective_mismatched"], None))
        rows.append(_scores_row("ir", "matched", "psnr_db", res["psnr_db"], None))
        rows.append(_scores_row("ir", "matched", "max_error", res["max_error"], None))
    with open(out / "attacks.csv", "w") as fh:
        fh.write("\n".join(rows) + "\n")
    for line in rows:
        print(line)
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = _load(args)
    if args.seeds is not None:
        cfg.n_seeds = args.seeds
    _require_bound_alpha(cfg, "convergence runs need 'alpha'")
    if cfg.rounds < 1:
        raise ConfigError(["convergence runs need rounds >= 1"])
    plan = cfg.build_plan()
    ccfg = ConvergenceConfig(plan=plan, alpha=cfg.alpha, n_seeds=cfg.n_seeds)
    out = _outdir(cfg)
    _write_manifest(cfg, out)
    report = run_convergence_experiment(ccfg)
    write_report_json(report, out / "report.json")
    write_report_csv(report, out / "report.csv")
    if cfg.n_seeds == 1:
        print("single-seed (not an expectation)")
    last_T, last_gap, last_bound = report.series[-1]
    print(f"T={last_T}: gap {_fmt6(last_gap)} vs bound {_fmt6(last_bound)} "
          f"over {cfg.n_seeds} seed(s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sbpu",
                                description="Deterministic federated-learning "
                                            "simulator with diverse per-client models")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("run-fl", cmd_run_fl), ("verify-bounds", cmd_verify_bounds),
                     ("run-attack", cmd_run_attack), ("convergence", cmd_convergence)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to JSON config")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed override (unsigned 64-bit)")
        sp.add_argument("--out", default=None, help="output directory override")
        if name == "convergence":
            sp.add_argument("--seeds", type=int, default=None,
                            help="number of Monte-Carlo seeds")
        if name == "run-attack":
            sp.add_argument("--attack", default=None,
                            help="attack tag: lia, mia, or ir")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SBPU_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, P.NonFiniteError) as e:
        print(f"runtime divergence: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

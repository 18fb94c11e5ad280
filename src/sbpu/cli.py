"""Command-line front end.

Subcommands: run-fl (federation run with metrics, checkpoints, manifest),
verify-bounds (neighborhood-bound audit), run-attack (lia / mia / ir),
convergence (Monte-Carlo gap and divergence measurement against the
closed-form bounds).  FederationConfig validates the file together with the
command-line values and each command's needs; this module only dispatches.

Exit codes: 0 ok, 1 configuration error (or a run too large to allocate, or an
output file that cannot be written, named in the message), 2 runtime divergence
(a non-finite loss, parameter value, divergence or envelope quantity), 3 bound
violation in the guaranteed regime.  Set SBPU_LOG to a logging level name (e.g.
DEBUG) for verbose progress output; an unknown name exits 1 before anything runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from functools import partial
from pathlib import Path

from . import params as P
from .attacks import ir_experiment, lia_experiment, mia_experiment
from .config import ConfigError, FederationConfig
from .convergence import run_convergence_experiment, write_report_csv, write_report_json
from .federation import DivergenceError, iter_rounds, run_federation

log = logging.getLogger("sbpu")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_BOUND = 3


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _load(args, **fixed) -> FederationConfig:
    """The config file with the command-line values and the command's fixed ones."""
    given = {"seed": args.seed, "out_dir": args.out, "n_seeds": getattr(args, "seeds", None)}
    return FederationConfig.from_file(
        args.config, {**{k: v for k, v in given.items() if v is not None}, **fixed})


def _outdir(cfg: FederationConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:   # e.g. a path under a regular file
        raise ConfigError([f"out_dir: cannot create {str(out)!r}: {e.strerror or e}"]) from e
    return out


def _write(path: Path, *parts) -> None:
    """Write the output file at path part by part: a str as it is, a function f as f(fh)
    on the open file.  A file that cannot be opened or written is a configuration error
    naming it (exit 1), not a traceback."""
    try:
        with open(path, "w") as fh:
            for part in parts:
                if isinstance(part, str):
                    fh.write(part)
                else:
                    part(fh)
    except OSError as e:
        raise ConfigError([f"cannot write {str(path)!r}: {e.strerror or e}"]) from e


def _write_manifest(cfg: FederationConfig, out: Path) -> None:
    _write(out / "manifest.json", json.dumps(cfg.manifest(), indent=2, sort_keys=True) + "\n")


def _write_metrics(records, K: int, out: Path) -> None:
    cols = ["round", "global_loss", "divergence"] + [f"loss_{k}" for k in range(K)]
    lines = [",".join(cols)]
    for rec in records:
        row = [str(rec.round), _fmt6(rec.global_loss), _fmt6(rec.divergence)]
        row += [_fmt6(v) for v in rec.client_losses]
        lines.append(",".join(row))
    _write(out / "metrics.csv", "\n".join(lines) + "\n")


def _write_bounds(records, out: Path) -> None:
    """bounds.csv from the per-round reports."""
    lines = ["round,client,dist_sq,lower,upper,holds"]
    lines += [f"{rec.round},{k},{b.dist_sq:.17g},{b.lower:.17g},{b.upper:.17g},{int(b.holds)}"
              for rec in records for k, b in enumerate(rec.bound_reports)]
    _write(out / "bounds.csv", "\n".join(lines) + "\n")


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
            _write(out / f"checkpoint_{rec.round:05d}.json", partial(P.write_json, w_final), "\n")
    _write_metrics(records, len(plan.clients), out)
    if plan.alpha is not None:
        _write_bounds(records, out)
    _write(out / "checkpoint_final.json", partial(P.write_json, w_final), "\n")
    log.info("run-fl: %d rounds -> %s", len(records), out)
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    cfg = _load(args, check_bounds=True)
    plan = cfg.build_plan()
    out = _outdir(cfg)
    _write_manifest(cfg, out)
    records = run_federation(plan)
    _write_bounds(records, out)
    violations = sum(not b.holds for rec in records for b in rec.bound_reports)

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
    tag = cfg.attack_tag(args.attack)
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
    _write(out / "attacks.csv", "\n".join(rows) + "\n")
    for line in rows:
        print(line)
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = _load(args, check_bounds=True)
    ccfg = cfg.build_convergence()
    out = _outdir(cfg)
    _write_manifest(cfg, out)
    report = run_convergence_experiment(ccfg)
    _write(out / "report.json", partial(write_report_json, report))
    _write(out / "report.csv", partial(write_report_csv, report))
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
    level = os.environ.get("SBPU_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):   # unknown: "Level ..."
        print(ConfigError([f"SBPU_LOG: unknown logging level {level!r}; use one of "
                           "DEBUG, INFO, WARNING, ERROR or CRITICAL"]), file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level.upper())
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:   # e.g. a batch_size whose batch indices no allocation holds
        print(ConfigError([f"the run does not fit in memory: {e}"]), file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, P.NonFiniteError) as e:
        print(f"runtime divergence: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Quantitative verification of the convergence and divergence bounds.

On strongly convex quadratic federations the true optimum is available by a
direct linear solve, so the expected optimality gap can be measured exactly
and compared against the closed-form rate

    E[f(w_T) - f*] <= 4*kappa/(gamma + T) * (B/(2*mu) + L*||w_1 - w*||^2)

with B = (1/K^2) * sum_i sigma_i^2 + 32*alpha^2/(1 - 4*alpha^2) * (E-1)^2 * G^2,
and the per-step client divergence against

    sum_k p_k * ||wbar_t - w_t^k||^2 <= 16*alpha^2*eta_t^2/(1-4*alpha^2) * (E-1)^2 * G^2.

Expectations are estimated by averaging independent seeds; both the batch
noise and the shuffles of the branch-selector lists are resampled per seed.
Both bounds hold on one schedule, eta_t = 2/(mu*(t + gamma)) at the clients'
mu and gamma = max(8*kappa, E).  ConvergenceConfig derives those constants and
the optimum once, refusing any other schedule and a numerically singular combined
matrix (by its eigenvalues); the experiment reads them, the cohort's weights and B.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import params as P
from . import seeds
from .federation import measure_divergence  # re-exported: the divergence this module bounds
from .federation import RunPlan, iter_rounds
from .objectives import AssumptionConstants, QuadraticObjective, constants_for
from .params import LayeredParams


def optimum_of(objs: Sequence[QuadraticObjective],
               weights: Sequence[float]) -> tuple[LayeredParams, float]:
    """Exact minimizer and value of the weighted quadratic objective.

    w* solves (sum p_k A_k) w = sum p_k A_k c_k; f* = sum p_k f_k(w*).
    """
    if len(objs) != len(weights):
        raise ValueError("one weight per objective")
    A = sum(p * o.matrix for p, o in zip(weights, objs))
    rhs = sum(p * (o.matrix @ o.center) for p, o in zip(weights, objs))
    lam = np.linalg.eigvalsh(A)   # A is SPD: its 2-norm condition number is lam[-1] / lam[0]
    if not lam[0] > 0.0 or lam[-1] / lam[0] > 1e14:
        raise np.linalg.LinAlgError("combined matrix numerically singular")
    w_star = objs[0].params_from_vector(np.linalg.solve(A, rhs))
    f_star = math.fsum(p * o.loss(w_star) for p, o in zip(weights, objs))
    return w_star, f_star


def sbpu_variance_term(alpha: float, E: int, G: float) -> float:
    """The SBPU term of B: twice the divergence bound at eta_t = 1."""
    return 2.0 * divergence_bound(alpha, 1.0, E, G)


def theorem1_bound(c: AssumptionConstants, alpha: float, E: int, K: int,
                   D0: float, T: int) -> float:
    """Closed-form gap bound at total iteration count T."""
    B = sum(s * s for s in c.sigma) / (K * K) + sbpu_variance_term(alpha, E, c.G)
    return _gap_bound(c, B, D0, T)


def _gap_bound(c: AssumptionConstants, B: float, D0: float, T: int) -> float:
    return 4.0 * c.kappa / (c.gamma + T) * (B / (2.0 * c.mu) + c.L * D0)


def divergence_bound(alpha: float, eta_t: float, E: int, G: float) -> float:
    """Per-step client-divergence bound in the compliant regime."""
    if 1.0 - 4.0 * alpha * alpha <= 0.0:
        raise ValueError(f"need 1 - 4*alpha^2 > 0; alpha = {alpha:g} is out of domain")
    return 16.0 * alpha * alpha * eta_t * eta_t / (1.0 - 4.0 * alpha * alpha) \
        * (E - 1) ** 2 * G * G


@dataclass(frozen=True)
class ConvergenceConfig:
    plan: RunPlan             # quadratic clients on the schedule of their constants
    alpha: float
    n_seeds: int = 32

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ValueError("need at least one seed")
        if self.plan.clients.quads is None:
            raise ValueError("convergence experiments require quadratic objectives")
        c, s = self.constants, self.plan.schedule
        if (s.mu, s.gamma) != (c.mu, c.gamma):
            raise ValueError(f"the bounds hold on the schedule mu = {c.mu}, gamma = {c.gamma} "
                             f"of these objectives, not on mu = {s.mu}, gamma = {s.gamma}")
        self.optimum   # a numerically singular combined matrix raises LinAlgError here

    @functools.cached_property
    def constants(self) -> AssumptionConstants:
        """The clients' constants on the largest of their projection balls."""
        objs = [c.objective for c in self.plan.clients]
        return constants_for(objs, self.plan.clients[0].E, max(o.radius for o in objs))

    @functools.cached_property
    def optimum(self) -> tuple[LayeredParams, float]:
        """optimum_of the clients' objectives at their sample weights: (w*, f*)."""
        return optimum_of([c.objective for c in self.plan.clients], self.plan.clients.weights)


@dataclass(frozen=True)
class ConvergenceReport:
    series: tuple[tuple[int, float, float], ...]          # (T, mean gap, bound)
    divergence_series: tuple[tuple[int, float, float, float], ...]  # (t, mean, max, bound)
    constants: AssumptionConstants
    B: float
    f_star: float
    D0: float
    n_seeds: int

    def to_jsonable(self) -> dict:
        return {
            "n_seeds": self.n_seeds,
            "single_seed_note": None if self.n_seeds > 1 else "single-seed (not an expectation)",
            "constants": {"L": self.constants.L, "mu": self.constants.mu,
                          "sigma": list(self.constants.sigma), "G": self.constants.G,
                          "kappa": self.constants.kappa, "gamma": self.constants.gamma},
            "B": self.B,
            "f_star": self.f_star,
            "D0": self.D0,
            "series": self.series,   # json writes a tuple as a list
            "divergence_series": self.divergence_series,
        }


def run_convergence_experiment(cfg: ConvergenceConfig) -> ConvergenceReport:
    """Monte-Carlo gap/divergence measurement against the closed-form bounds."""
    plan, consts = cfg.plan, cfg.constants
    E, K = plan.clients[0].E, len(plan.clients)

    w_star, f_star = cfg.optimum
    D0 = P.sq_distance(plan.w_init, w_star)
    B = sum(s * s for s in consts.sigma) / (K * K) + sbpu_variance_term(cfg.alpha, E, consts.G)

    n_rounds = plan.rounds
    gap_sum = np.zeros(n_rounds)
    div_sum = np.zeros(n_rounds * E)
    div_max = np.zeros(n_rounds * E)
    for i in range(cfg.n_seeds):
        seed_i = seeds.child_seed(plan.seed, "mc", i)
        # the gap needs f at the post-round aggregate (RoundRecord.global_loss); no envelope audit
        for _, rec in iter_rounds(replace(plan, seed=seed_i, alpha=None)):
            gap_sum[rec.round] += rec.global_loss - f_star
            for s, d in enumerate(rec.step_divergences):
                t = rec.round * E + s
                div_sum[t] += d
                div_max[t] = max(div_max[t], d)

    series = tuple((int((r + 1) * E), float(gap_sum[r] / cfg.n_seeds),
                    _gap_bound(consts, B, D0, (r + 1) * E))
                   for r in range(n_rounds))
    div_series = tuple((t, float(div_sum[t] / cfg.n_seeds), float(div_max[t]),
                        divergence_bound(cfg.alpha, plan.schedule.lr_at(t), E, consts.G))
                       for t in range(n_rounds * E))
    return ConvergenceReport(series=series, divergence_series=div_series,
                             constants=consts, B=B, f_star=f_star, D0=D0,
                             n_seeds=cfg.n_seeds)


def loglog_slope(points: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log(gap) vs log(T) over the given points."""
    xs = np.log([t for t, g in points])
    ys = np.log([g for t, g in points])
    A = np.vstack([xs, np.ones_like(xs)]).T
    slope, _ = np.linalg.lstsq(A, ys, rcond=None)[0]
    return float(slope)


def final_decade_slope(series: Sequence[tuple[int, float, float]]) -> float:
    """Slope of the mean gap over the last decade of recorded T values."""
    T_max = series[-1][0]
    pts = [(t, g) for t, g, _ in series if t >= T_max / 10.0 and g > 0.0]
    if len(pts) < 2:
        raise ValueError("not enough positive gap points in the final decade")
    return loglog_slope(pts)


def write_report_csv(report: ConvergenceReport, path) -> None:
    """Flat CSV: one row per recorded round-end T, with the divergence
    measured at that step."""
    div, nan = report.divergence_series, (0, float("nan"), 0.0, float("nan"))
    with open(path, "w") as fh:
        fh.write("T,gap,bound,divergence,divergence_bound\n")
        for T, gap, bound in report.series:
            _, d, _, db = div[T - 1] if 0 < T <= len(div) else nan   # row t is step t
            fh.write(f"{T},{gap:.6g},{bound:.6g},{d:.6g},{db:.6g}\n")


def write_report_json(report: ConvergenceReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_jsonable(), fh, indent=2)
        fh.write("\n")

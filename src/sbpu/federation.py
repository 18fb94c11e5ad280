"""Round orchestration for the simulated federation.

One round: (1) generate a diverse model per client from the global history,
(2) run E local SGD iterations on all clients in lockstep, measuring the
client divergence after every step, (3) apply the configured defense to each
uploaded parameter delta and aggregate by sample fraction, (4) rotate the
history and advance the round counter.

All randomness flows through streams derived from the master seed, so
concurrent and serial client schedules produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import params as P
from . import seeds
from .mutation import (BoundReport, DiversityRates, GlobalHistory,
                       check_neighborhood_bound, generate_diverse_models)
from .objectives import (ClassifierObjective, LrSchedule, QuadraticObjective,
                         sgd_step)
from .params import LayeredParams

DP_DELTA = 1e-5  # delta used by the Gaussian-mechanism noise calibration


class DivergenceError(RuntimeError):
    """Local training produced a non-finite loss."""

    def __init__(self, client_id: int, iteration: int):
        self.client_id = client_id
        self.iteration = iteration
        super().__init__(f"client {client_id} diverged at local iteration {iteration}")


@dataclass(frozen=True)
class ClientState:
    id: int
    n_k: int
    objective: QuadraticObjective | ClassifierObjective
    E: int
    batch_size: int = 1

    def __post_init__(self):
        if self.n_k < 1:
            raise ValueError("n_k must be >= 1")
        if self.E < 1:
            raise ValueError("E must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class DefensePolicy:
    """Upload defense: none, clipped Gaussian noise (dp), or pruning (gc)."""

    tag: str = "none"
    epsilon_per_round: float = 0.0
    clip: float = 1.0
    prune_fraction: float = 0.0

    def __post_init__(self):
        if self.tag not in ("none", "dp", "gc"):
            raise ValueError(f"unknown defense tag {self.tag!r}")
        if self.tag == "dp":
            if not 0.0 < self.clip < math.inf:
                raise ValueError("dp clip bound C must be finite and > 0")
            if not 0.0 < self.epsilon_per_round < math.inf:
                raise ValueError("dp epsilon_per_round must be finite and > 0")
        if self.tag == "gc" and not (0.0 <= self.prune_fraction < 1.0):
            raise ValueError("gc prune fraction must lie in [0, 1)")

    def noise_std(self) -> float:
        """Per-coordinate std of the Gaussian mechanism at (epsilon, C)."""
        return self.clip * math.sqrt(2.0 * math.log(1.25 / DP_DELTA)) / self.epsilon_per_round


@dataclass(frozen=True)
class RoundRecord:
    round: int
    global_loss: float
    client_losses: tuple[float, ...]          # full loss after the last local step
    step_divergences: tuple[float, ...]       # client divergence after each local step
    bound_reports: tuple[BoundReport, ...]

    @property
    def divergence(self) -> float:
        """Client divergence after the last local step."""
        return self.step_divergences[-1]


def _local_step(c: ClientState, w: LayeredParams, eta: float, s: int,
                rng: np.random.Generator) -> tuple[LayeredParams, float]:
    """Local iteration s of client c: (new w, its full loss), or DivergenceError.

    Quadratic clients start from w projected onto their radius-R ball and
    take projected sphere-noise gradient steps; classifier clients sample
    one batch uniformly with replacement.
    """
    obj = c.objective
    if isinstance(obj, QuadraticObjective):
        w = obj.project(w) if s == 0 else w
        w = sgd_step(w, obj.stochastic_grad(w, rng), eta, ball=(obj.center, obj.radius))
    else:
        idx = rng.integers(0, obj.n_samples, size=c.batch_size)
        w = sgd_step(w, obj.grad(w, (obj.data_x[idx], obj.data_y[idx])), eta)
    loss = obj.loss(w)
    if not math.isfinite(loss):
        raise DivergenceError(c.id, s)
    return w, loss


def local_train(c: ClientState, w_init: LayeredParams, schedule: LrSchedule,
                global_step_offset: int, rng: np.random.Generator) -> LayeredParams:
    """One client's E SGD iterations from w_init with the shared step-count
    schedule; run_round takes the same steps for all clients in lockstep."""
    w = w_init
    for s in range(c.E):
        w, _ = _local_step(c, w, schedule.lr_at(global_step_offset + s), s, rng)
    return w


def _weighted_mean(updates: Sequence[LayeredParams], sizes: Sequence[int]) -> np.ndarray:
    """Checked sum_k (n_k / N) * update_k as a fresh vector: the anchor plus weighted
    deviations from the first update, so identical inputs give that input bit for bit."""
    if not updates:
        raise ValueError("no updates to aggregate")
    if len(updates) != len(sizes):
        raise ValueError(f"{len(updates)} updates but {len(sizes)} sizes")
    if any(s <= 0 for s in sizes):
        raise ValueError("client sizes must be positive")
    for u in updates[1:]:
        if u.layout != updates[0].layout:
            P.check_same_shape(updates[0], u)   # names the first differing layer
    total = float(sum(sizes))
    base = updates[0].vector
    acc = base.copy()
    for u, nk in zip(updates[1:], sizes[1:]):
        acc += (nk / total) * (u.vector - base)
    return acc


def aggregate(updates: Sequence[LayeredParams], sizes: Sequence[int]) -> LayeredParams:
    """Sample-fraction weighted average, sum_k (n_k / N) * update_k."""
    return P.from_vector(_weighted_mean(updates, sizes), updates[0])


def measure_divergence(client_weights: Sequence[LayeredParams],
                       sizes: Sequence[int]) -> float:
    """sum_k p_k * ||wbar - w_k||^2 with wbar the sample-weighted average."""
    mean = _weighted_mean(client_weights, sizes)
    layout = client_weights[0].layout
    total = float(sum(sizes))
    return math.fsum((n / total) * P.layer_sq_sum(mean - w.vector, layout)
                     for n, w in zip(sizes, client_weights))


def apply_defense(g: LayeredParams, policy: DefensePolicy,
                  rng: np.random.Generator) -> LayeredParams:
    """Defend an uploaded delta: identity, clip+noise, or magnitude pruning."""
    if policy.tag == "none":
        return g
    v = P.as_vector(g)
    if policy.tag == "dp":
        norm = float(np.linalg.norm(v))
        if norm > policy.clip:
            v = v * (policy.clip / norm)
        v = v + policy.noise_std() * rng.standard_normal(v.size)
        return P.from_vector(v, g)
    # gc: zero the smallest-magnitude fraction, ties broken by flat index
    n_zero = int(math.floor(policy.prune_fraction * v.size))
    if n_zero > 0:
        order = np.argsort(np.abs(v), kind="stable")
        out = v.copy()
        out[order[:n_zero]] = 0.0
        v = out
    return P.from_vector(v, g)


def run_round(h: GlobalHistory, clients: Sequence[ClientState], rates: DiversityRates,
              schedule: LrSchedule, policy: DefensePolicy, seed: int,
              alpha: float | None = None,
              tie_gradients: bool = False) -> tuple[GlobalHistory, RoundRecord]:
    """Execute one full federation round and rotate the history.

    Clients train in lockstep: local iteration s runs on each client in turn,
    then the client divergence is measured, before iteration s + 1 runs.  Each
    client draws from its own ("train", round, client) stream, so the order
    changes no value, but a DivergenceError names the earliest diverging
    iteration.  The client losses are those of the last iteration.  A
    non-finite envelope quantity (alpha given) raises params.NonFiniteError
    naming the round and the client.
    """
    K = len(clients)
    sizes = [c.n_k for c in clients]
    E = clients[0].E
    if any(c.E != E for c in clients):
        raise ValueError("all clients must share one E")

    dispatched = generate_diverse_models(h, K, rates, seed)

    reports = [] if alpha is None else [check_neighborhood_bound(w, h, alpha) for w in dispatched]
    for c, b in zip(clients, reports):
        if not all(map(math.isfinite, (b.dist_sq, b.delta_sq, b.lower, b.upper))):
            raise P.NonFiniteError(f"round {h.round}, client {c.id}: non-finite "
                                   f"envelope quantity in {b}")

    rngs = [seeds.stream(seed, "train", h.round, c.id) for c in clients]
    trained, step_divergences = dispatched, []
    for s in range(E):
        eta = schedule.lr_at(h.round * E + s)
        steps = [_local_step(c, w, eta, s, rng)
                 for c, w, rng in zip(clients, trained, rngs)]
        trained = [w for w, _ in steps]
        step_divergences.append(measure_divergence(trained, sizes))

    if policy.tag == "none":
        uploads = trained   # identity defense: avoid the delta round-trip
    else:
        uploads = []
        for c, w0, w in zip(clients, dispatched, trained):
            delta = P.diff(w, w0)
            defended = apply_defense(delta, policy,
                                     seeds.stream(seed, "defense", h.round, c.id))
            uploads.append(P.add_scaled(w0, 1.0, defended))

    new_glb = aggregate(uploads, sizes)
    total = float(sum(sizes))
    global_loss = math.fsum((c.n_k / total) * c.objective.loss(new_glb) for c in clients)

    record = RoundRecord(
        round=h.round,
        global_loss=global_loss,
        client_losses=tuple(loss for _, loss in steps),
        step_divergences=tuple(step_divergences),
        bound_reports=tuple(reports),
    )
    return h.rotated(new_glb, tie_gradients=tie_gradients), record


@dataclass(frozen=True)
class RunPlan:
    """Fully resolved inputs for a deterministic multi-round run."""

    clients: tuple[ClientState, ...]
    rates: DiversityRates
    schedule: LrSchedule
    policy: DefensePolicy
    rounds: int
    seed: int
    w_init: LayeredParams
    alpha: float | None = None
    tie_gradients: bool = False

    def __post_init__(self):
        if not self.clients:
            raise ValueError("need at least one client")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")


def iter_rounds(plan: RunPlan) -> Iterator[tuple[GlobalHistory, RoundRecord]]:
    """The round loop: yield (history after the round, its record) per round.

    T = rounds * E SGD iterations per client in total.
    """
    h = GlobalHistory.bootstrap(plan.w_init)
    for _ in range(plan.rounds):
        h, rec = run_round(h, plan.clients, plan.rates, plan.schedule, plan.policy,
                           plan.seed, alpha=plan.alpha, tie_gradients=plan.tie_gradients)
        yield h, rec


def run_federation(plan: RunPlan, history_out: list | None = None) -> list[RoundRecord]:
    """Run all rounds and return their records.

    history_out, when given, receives the final GlobalHistory (the bootstrap
    history if rounds == 0).
    """
    h = GlobalHistory.bootstrap(plan.w_init)
    records = []
    for h, rec in iter_rounds(plan):
        records.append(rec)
    if history_out is not None:
        history_out[:] = [h]
    return records

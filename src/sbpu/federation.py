"""Round orchestration for the simulated federation.

Clients are admitted once per run: RunPlan holds them as a Cohort, which
checks the one admission rule (shared with local_train) and keeps what never
changes during a run, such as the stacked quadratics.  One round: (1) check
the cohort's layout against the history, (2) make a diverse model per client
from the global history, (3) run E local SGD steps on all clients in
lockstep, measuring the client divergence after each, (4) defend each
uploaded parameter delta and aggregate by sample fraction, (5) rotate the
history and advance the round counter.  So a round pays only for its random
draws and its arithmetic.

Inside a round the K dispatched models are the rows of one (K, d) float64
array, from the mutation through the envelope reports, local SGD, defense
and aggregation: quadratic clients step all rows at once (QuadraticStack),
classifier clients one stacked backprop per group of like clients
(Cohort.groups), each row with the bits it gets alone.  Only the last local
step's losses are recorded, like the global loss one stacked forward per
group over its data; a classifier's earlier ones are certified finite
(ClassifierObjective._loss_certified), evaluated only where that fails.
A classifier Cohort sizes glibc's mmap and trim thresholds (tune_malloc) so
that a round's temporaries stay on the heap.
LayeredParams appears only at the history (the new aggregate, once a
round) and at the public functions, which wrap the kernels the engine runs.

All randomness flows through streams derived from the master seed, so
concurrent and serial client schedules produce bit-identical results.  Round
streams are keyed by (seed, tag, round, client); within a run (iter_rounds)
run_round derives them ROUND_BLOCK rounds at a time, with identical bits.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import params as P
from . import seeds
from .mutation import BoundReport, DiversityRates, GlobalHistory, _dispatch_matrix, _envelopes
from .objectives import ClassifierObjective, LrSchedule, QuadraticObjective, QuadraticStack
from .params import LayeredParams

DP_DELTA = 1e-5  # delta used by the Gaussian-mechanism noise calibration
ROUND_BLOCK = 64  # rounds of a run whose streams one pass derives


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
    client_losses: tuple[float, ...]          # full loss after the last local step, a group's
                                              # at once; earlier steps' certified finite
    step_divergences: tuple[float, ...]       # client divergence after each local step
    bound_reports: tuple[BoundReport, ...]

    @property
    def divergence(self) -> float:
        """Client divergence after the last local step."""
        return self.step_divergences[-1]


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # glibc's mallopt parameters


@functools.cache
def tune_malloc(largest: int = 0) -> None:
    """Keep a round's classifier temporaries, the largest `largest` bytes (1 MiB
    for 32-64-10 at K = 8, n = 256), on glibc's heap, which by default trims
    them and faults them back in at every step: mmap threshold max(1 MiB,
    2 * largest) up to glibc's cap (32 MiB on 64-bit), trim threshold twice
    that.  Once per size and process, a no-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):   # no mallopt, or no handle to the process (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mmap = min(max(1 << 20, 2 * largest), ctypes.sizeof(ctypes.c_long) << 22)
    mallopt(M_MMAP_THRESHOLD, mmap)
    mallopt(M_TRIM_THRESHOLD, 2 * mmap)


class Cohort(tuple):
    """The admitted clients of a run, with what run_round needs of them that
    costs work to build and never changes: the stacked quadratics (None for
    classifiers), each classifier's largest |x| over its data (x_max, for
    the loss certificate), the shared template, and the classifier groups:
    clients of one architecture, batch_size and dataset size, which one
    stacked backprop steps and one stacked forward evaluates, as (objective,
    batch_size, client index array, their data stacked (K, n, in) and
    (K, n)).  A classifier Cohort passes its largest stacked activations,
    K * n * widest layer floats, to tune_malloc.

    Admission is the one rule of run_round and local_train: at least one
    client, one objective kind, one E, one template() layout (the flat
    kernels do not check), and a dataset in each classifier.  RunPlan admits
    its clients once; run_round and local_train wrap a plain sequence on the
    spot, and Cohort(cohort) is cohort itself.  The caller checks the
    template against the model.
    It also keeps the last block of round streams it derived (streams)."""

    def __new__(cls, clients: Sequence[ClientState]) -> "Cohort":
        if isinstance(clients, Cohort):
            return clients
        self = super().__new__(cls, clients)
        if not self:
            raise ValueError("need at least one client")
        if len({isinstance(c.objective, QuadraticObjective) for c in self}) > 1:
            raise ValueError("all clients must share one objective kind")
        if any(c.E != self[0].E for c in self):
            raise ValueError("all clients must share one E")
        self.template = self[0].objective.template()
        for c in self[1:]:
            P.check_same_shape(c.objective.template(), self.template)
        self.quads = (QuadraticStack([c.objective for c in self])
                      if isinstance(self[0].objective, QuadraticObjective) else None)
        self.x_max, self.groups = None, []
        if self.quads is None:
            for c in self:
                if c.objective.data_x is None:
                    raise ValueError(f"client {c.id}: classifier without an embedded dataset")
            self.x_max = np.array([np.maximum.reduce(np.abs(c.objective.data_x), axis=None)
                                   for c in self])
            keys = {}
            for k, c in enumerate(self):
                keys.setdefault((c.objective.architecture, c.batch_size,
                                 c.objective.n_samples), []).append(k)
            self.groups = [(self[ks[0]].objective, self[ks[0]].batch_size, np.array(ks),
                            (np.array([self[k].objective.data_x for k in ks]),
                             np.array([self[k].objective.data_y for k in ks])))
                           for ks in keys.values()]
            tune_malloc(max(8 * len(ks) * obj.n_samples
                            * max(max(i, o) for i, o, _ in obj.architecture)
                            for obj, _, ks, _ in self.groups))
        self.end, self._block = None, None
        return self

    def for_rounds(self, end: int) -> "Cohort":
        """A copy for one run of the rounds below end, with its own block."""
        run = tuple.__new__(Cohort, self)
        run.__dict__.update(self.__dict__, end=end, _block=None)
        return run

    def streams(self, seed: int, r: int, tags: tuple) -> dict[str, list[np.random.Generator]]:
        """Per tag, seeds.stream(seed, tag, r, key) for each client, key its
        index for "sbpu" and its id otherwise.  Past the kept block, one
        seeds.pcg64_words call derives rounds r to r + ROUND_BLOCK - 1, cut
        at end (only r if end is None)."""
        b = self._block
        if b is None or b[:2] != (seed, tags) or not 0 <= r - b[2] < len(b[3]):
            n = 1 if self.end is None else min(ROUND_BLOCK, max(self.end - r, 1))
            keys = {t: range(len(self)) if t == "sbpu" else [c.id for c in self] for t in tags}
            words = seeds.pcg64_words([seeds.child_seed(seed, t, q, k) for q in range(r, r + n)
                                       for t in tags for k in keys[t]])
            b = self._block = (seed, tags, r, words.reshape(n, len(tags), len(self), 4))
        return {t: [seeds.from_words(w) for w in ws] for t, ws in zip(tags, b[3][r - b[2]])}


def _local_step(clients: Cohort, X: np.ndarray, eta: float, s: int,
                rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, list[float] | None]:
    """Local iteration s of client k on row k of X: (new rows, their full
    losses if s is the last iteration E - 1, else None).

    Rows stay flat; LayeredParams appears only at the history and the public
    functions.  Quadratic clients start from their row projected onto their
    radius-R ball and take projected sphere-noise gradient steps, all rows at
    once; classifier clients each step X[k] + (-eta) * g on one batch sampled
    uniformly with replacement, one stacked backprop per Cohort group.  The
    first client whose row is not finite raises params.NonFiniteError, or
    DivergenceError if only its loss is not.  A group's losses are one
    stacked _loss call over its data: at the last iteration all its rows,
    before it only the rows _loss_certified cannot show finite; elsewhere
    0.0 stands in for the loss.
    """
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    quads, last = clients.quads, s == clients[0].E - 1
    if quads is None:
        new, losses = np.empty_like(X), np.zeros(len(clients))
        for obj, size, ks, (DX, DY) in clients.groups:
            at = (np.arange(len(ks))[:, None],
                  np.array([rngs[k].integers(0, obj.n_samples, size=size) for k in ks]))
            rows = X[ks]
            rows += (-eta) * obj._grad(rows, (DX[at], DY[at]))
            new[ks] = rows
            due = slice(None) if last else ~obj._loss_certified(rows, clients.x_max[ks])
            if last or due.any():
                losses[ks[due]] = obj._loss(rows[due], (DX[due], DY[due]))
        X = new
    else:
        X = quads.sgd_step(quads.project(X) if s == 0 else X, eta, rngs)
        losses = quads.loss(X)
    if not (np.isfinite(X).all() and np.isfinite(losses).all()):
        k = int(np.argmin(np.isfinite(X).all(axis=1) & np.isfinite(losses)))
        if not np.isfinite(X[k]).all():
            raise P.NonFiniteError("non-finite value in parameters")
        raise DivergenceError(clients[k].id, s)
    return X, losses.tolist() if last else None


def local_train(c: ClientState, w_init: LayeredParams, schedule: LrSchedule,
                global_step_offset: int, rng: np.random.Generator) -> LayeredParams:
    """One client's E SGD iterations from w_init with the shared step-count
    schedule; run_round takes the same steps for all clients in lockstep."""
    cohort, X = Cohort([c]), w_init.vector[None, :]
    P.check_same_shape(cohort.template, w_init)
    for s in range(c.E):
        X, _ = _local_step(cohort, X, schedule.lr_at(global_step_offset + s), s, [rng])
    return P.from_vector(X[0], w_init)


def _checked_vectors(updates: Sequence[LayeredParams], sizes: Sequence[int]) -> np.ndarray:
    """The updates' vectors as rows, once the updates and sizes are checked."""
    if not updates:
        raise ValueError("no updates to aggregate")
    if len(updates) != len(sizes):
        raise ValueError(f"{len(updates)} updates but {len(sizes)} sizes")
    if any(s <= 0 for s in sizes):
        raise ValueError("client sizes must be positive")
    for u in updates[1:]:
        P.check_same_shape(updates[0], u)   # names the first differing layer
    return np.stack([u.vector for u in updates])


def _weighted_mean(X: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """sum_k (n_k / N) * X[k] as a fresh vector: the anchor plus weighted
    deviations from the first row, so identical rows give that row bit for bit."""
    total = float(sum(sizes))
    base = X[0]
    acc = base.copy()
    for x, nk in zip(X[1:], sizes[1:]):
        acc += (nk / total) * (x - base)
    return acc


def _divergence(X: np.ndarray, sizes: Sequence[int], layout: tuple) -> float:
    """sum_k p_k * ||wbar - X[k]||^2 with wbar the sample-weighted mean of the rows."""
    total = float(sum(sizes))
    return math.fsum((n / total) * sq for n, sq in
                     zip(sizes, P.layer_sq_sums(_weighted_mean(X, sizes) - X, layout)))


def aggregate(updates: Sequence[LayeredParams], sizes: Sequence[int]) -> LayeredParams:
    """Sample-fraction weighted average, sum_k (n_k / N) * update_k."""
    return P.from_vector(_weighted_mean(_checked_vectors(updates, sizes), sizes), updates[0])


def measure_divergence(client_weights: Sequence[LayeredParams],
                       sizes: Sequence[int]) -> float:
    """sum_k p_k * ||wbar - w_k||^2 with wbar the sample-weighted average."""
    return _divergence(_checked_vectors(client_weights, sizes), sizes,
                       client_weights[0].layout)


def _defend(v: np.ndarray, policy: DefensePolicy, rng: np.random.Generator) -> np.ndarray:
    """The flat delta v under a dp or gc policy: clip+noise, or magnitude pruning."""
    if policy.tag == "dp":
        norm = float(np.linalg.norm(v))
        if norm > policy.clip:
            v = v * (policy.clip / norm)
        return v + policy.noise_std() * rng.standard_normal(v.size)
    # gc: zero the smallest-magnitude fraction, ties broken by flat index
    n_zero = int(math.floor(policy.prune_fraction * v.size))
    if n_zero > 0:
        order = np.argsort(np.abs(v), kind="stable")
        v = v.copy()
        v[order[:n_zero]] = 0.0
    return v


def apply_defense(g: LayeredParams, policy: DefensePolicy,
                  rng: np.random.Generator) -> LayeredParams:
    """Defend an uploaded delta: identity, clip+noise, or magnitude pruning."""
    return g if policy.tag == "none" else P.from_vector(_defend(g.vector, policy, rng), g)


def run_round(h: GlobalHistory, clients: Sequence[ClientState], rates: DiversityRates,
              schedule: LrSchedule, policy: DefensePolicy, seed: int,
              alpha: float | None = None,
              tie_gradients: bool = False) -> tuple[GlobalHistory, RoundRecord]:
    """Execute one full federation round and rotate the history.

    The K dispatched models are the rows of one (K, d) matrix from the
    mutation to the aggregate.  Clients train in lockstep: local iteration s
    runs on every row, then the client divergence is measured, before
    iteration s + 1 runs.  Each client draws from its own ("train", round,
    client) stream, so the order changes no value, but a DivergenceError
    names the earliest diverging iteration.  The client losses are those of
    the last iteration.  A non-finite envelope quantity (alpha given), client
    divergence or global loss raises params.NonFiniteError naming the round.
    """
    cohort = Cohort(clients)
    P.check_same_shape(cohort.template, h.w_glb)
    sizes, E = [c.n_k for c in cohort], cohort[0].E

    tags = ("sbpu", "train") if policy.tag == "none" else ("sbpu", "train", "defense")
    streams = cohort.streams(seed, h.round, tags)
    dispatched = _dispatch_matrix(h, rates, streams["sbpu"])

    reports = [] if alpha is None else _envelopes(dispatched, h, alpha)
    for c, b in zip(cohort, reports):
        if not all(map(math.isfinite, (b.dist_sq, b.delta_sq, b.lower, b.upper))):
            raise P.NonFiniteError(f"round {h.round}, client {c.id}: non-finite "
                                   f"envelope quantity in {b}")

    trained, step_divergences = dispatched, []
    for s in range(E):
        trained, losses = _local_step(cohort, trained, schedule.lr_at(h.round * E + s), s,
                                      streams["train"])
        step_divergences.append(_divergence(trained, sizes, h.w_glb.layout))
    for s, d in enumerate(step_divergences):   # checked after training: DivergenceError first
        if not math.isfinite(d):
            raise P.NonFiniteError(f"round {h.round}, local step {s}: non-finite divergence {d}")

    uploads = trained   # identity defense
    if policy.tag != "none":
        uploads = dispatched + np.array([
            _defend(delta, policy, rng)
            for rng, delta in zip(streams["defense"], trained - dispatched)])
    new_glb = P.from_vector(_weighted_mean(uploads, sizes), h.w_glb)
    total = float(sum(sizes))
    glb_losses = np.empty(len(cohort)) if cohort.quads is None else cohort.quads.loss(new_glb.vector)
    for obj, _, ks, data in cohort.groups:   # classifiers: the aggregate over each group's data
        glb_losses[ks] = obj._loss(new_glb.vector, data)
    global_loss = math.fsum((n / total) * loss for n, loss in zip(sizes, glb_losses.tolist()))
    if not math.isfinite(global_loss):
        raise P.NonFiniteError(f"round {h.round}: non-finite global loss {global_loss}")

    record = RoundRecord(
        round=h.round,
        global_loss=global_loss,
        client_losses=tuple(losses),
        step_divergences=tuple(step_divergences),
        bound_reports=tuple(reports),
    )
    return h.rotated(new_glb, tie_gradients=tie_gradients), record


@dataclass(frozen=True)
class RunPlan:
    """Fully resolved inputs for a deterministic multi-round run."""

    clients: Cohort            # given as any sequence of ClientState
    rates: DiversityRates
    schedule: LrSchedule
    policy: DefensePolicy
    rounds: int
    seed: int
    w_init: LayeredParams
    alpha: float | None = None
    tie_gradients: bool = False

    def __post_init__(self):
        object.__setattr__(self, "clients", Cohort(self.clients))   # admitted once per run
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")


def iter_rounds(plan: RunPlan) -> Iterator[tuple[GlobalHistory, RoundRecord]]:
    """The round loop: yield (history after the round, its record) per round.

    T = rounds * E SGD iterations per client in total.
    """
    h, clients = GlobalHistory.bootstrap(plan.w_init), plan.clients.for_rounds(plan.rounds)
    for _ in range(plan.rounds):
        h, rec = run_round(h, clients, plan.rates, plan.schedule, plan.policy,
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

"""Round orchestration for the simulated federation.

Clients are admitted once per run: RunPlan holds them as a Cohort, which
checks the one admission rule (shared with local_train) and keeps what never
changes during a run, such as the stacked quadratics and the sample weights;
nothing admitted is checked again.  One round: (1) check the cohort's layout
against the history, (2) make a diverse model per client from the global
history, (3) run E local SGD steps on all clients in lockstep, measuring the
client divergence after each, (4) defend each uploaded parameter delta and
aggregate by sample fraction, (5) rotate the history and advance the round
counter.  So a round pays only for its random draws and its arithmetic.

Inside a round the K dispatched models are the rows of one (K, d) float64 array,
from the mutation through the envelope reports, local SGD, defense and
aggregation: quadratic clients step all rows at once (QuadraticStack) on the
centred rows the step before handed on, classifier clients one stacked backprop
per run of like clients, a slice of the rows (Cohort.groups), each row with the
bits it gets alone.  Only the last local step's losses are recorded, like the
global loss by stacked forwards per group over its data, a run of clients at a
time whose widest activation stays within objectives.LOSS_BLOCK_BYTES
(ClassifierObjective._loss); earlier ones are certified finite, a classifier's per
row (ClassifierObjective._loss_certified) and evaluated where that fails, a
quadratic cohort's once per run (Cohort.certified).
The divergence squares its deviations in place; under the identity defense
the aggregate is the mean it computed at the last step.  The new aggregate
is a copy of that mean, made once the local steps' temporaries are freed:
the history keeps it three rounds, and the mean itself, allocated among
them, would pin a hole there that can raise the heap's high-water mark in
steady rounds and fault fresh pages in.
The first classifier Cohort calls tune_malloc.  LayeredParams appears only
at the history (the new aggregate, once a round) and at the public
functions, which wrap the kernels the engine runs.

All randomness flows through streams derived from the master seed, so
concurrent and serial client schedules produce bit-identical results.  Round
streams are keyed by (seed, tag, round, client); within a run (iter_rounds)
run_round derives them ROUND_BLOCK rounds at a time (fewer when a quadratic
block's noise would pass NOISE_BLOCK_BYTES), with identical bits.
Cohort.streams hands out "sbpu" as selector rows, "train" as the round's
draws (Cohort.draws), at most one call a client: a quadratic cohort's sphere
noise, drawn for the whole block as it is derived, so a steady round only
slices it, or a classifier group's batch indices, drawn each round; and
"defense" as generators, built each round.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import params as P
from . import seeds
from .mutation import (BoundReport, DiversityRates, GlobalHistory, _dispatch_matrix, _envelopes,
                       _selector_plan)
from .objectives import ClassifierObjective, LrSchedule, QuadraticObjective, QuadraticStack
from .params import LayeredParams

DP_DELTA = 1e-5  # delta used by the Gaussian-mechanism noise calibration
ROUND_BLOCK = 64  # rounds of a run whose streams one pass derives
NOISE_BLOCK_BYTES = 1 << 20  # a quadratic block's sphere noise, at most; one round at least


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
            if not math.isfinite(self.noise_std()):
                raise ValueError(f"dp noise std C * sqrt(2 ln(1.25 / delta)) / epsilon_per_round "
                                 f"overflows for C = {self.clip}, epsilon_per_round = "
                                 f"{self.epsilon_per_round}")
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
def tune_malloc() -> None:
    """Keep a round's classifier temporaries on glibc's heap: mmap threshold at glibc's
    cap (32 MiB on 64-bit), trim threshold twice that, once per process, which then
    keeps up to 64 MiB of freed heap; a no-op without mallopt.  It matters only with
    more than one BLAS thread: at two (2-vCPU host), a K = 8, n = 256 cohort's steady
    rounds fault in up to about 395 pages without it, and ran 0-10 % slower in two
    measurements.  At one thread glibc's own thresholds keep them fault-free."""
    mmap = ctypes.sizeof(ctypes.c_long) << 22
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):   # no mallopt, or no handle to the process (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_MMAP_THRESHOLD, mmap)
    mallopt(M_TRIM_THRESHOLD, 2 * mmap)


class Cohort(tuple):
    """The admitted clients of a run, with what run_round needs of them that costs
    work to build and never changes: the stacked quadratics (None for classifiers)
    with their loss certificate (certified: 0.5 * L * R^2 < 1e300 for each, L its
    smoothness, so every loss in the balls is finite, rounding included), the shared
    template, the sample fractions n_k / N (weights), and the classifier groups: runs
    of consecutive clients of one architecture, batch_size and dataset size, which one
    stacked backprop steps and one stacked forward evaluates, as (objective,
    batch_size, the run's rows as a slice, their data stacked (k, n, in) and (k, n),
    each one's largest |x| for its loss certificate).  A config's clients form one run;
    an interleaved cohort (A, B, A) steps as three groups.

    Admission is the one rule of run_round and local_train: at least one
    client, one objective kind, one E, one template() layout, and a dataset in
    each classifier, checked when the objective was built, whose group's batch
    indices for a round fit one array; the flat kernels check none of it.
    RunPlan admits its clients once; run_round and local_train wrap a plain
    sequence on the spot, and Cohort(cohort) is cohort itself.  The caller
    checks the template against the model.  It also keeps the last block of
    round streams it derived, with a quadratic block's sphere noise (streams; block
    rounds long, fewer than ROUND_BLOCK when that noise would pass NOISE_BLOCK_BYTES),
    and makes a round's draws (draws)."""

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
        self.weights = _fractions([c.n_k for c in self])
        for c in self[1:]:
            P.check_same_shape(c.objective.template(), self.template)
        self.quads = (QuadraticStack([c.objective for c in self])
                      if isinstance(self[0].objective, QuadraticObjective) else None)
        self.groups, self.block = [], ROUND_BLOCK
        if self.quads is not None:   # 0.5 * L * R^2 bounds a loss in the ball
            noise = 8 * len(self.quads.rows) * self[0].E * self.quads.center.shape[1]
            self.block = min(ROUND_BLOCK, max(1, NOISE_BLOCK_BYTES // max(noise, 1)))
            L = np.array([c.objective.smoothness for c in self])
            with np.errstate(over="ignore"):   # an overflowing bound fails, silently
                self.certified = bool(np.maximum.reduce(
                    0.5 * L * (self.quads.radius * (1.0 + 1e-12)) ** 2) < 1e300)
        else:
            for c in self:
                if c.objective.data_x is None:
                    raise ValueError(f"client {c.id}: classifier without an embedded dataset")
            k = 0
            for (_, size, _), like in itertools.groupby(self, lambda c: (
                    c.objective.architecture, c.batch_size, c.objective.n_samples)):
                objs = [c.objective for c in like]
                if len(objs) * self[0].E * size > np.iinfo(np.intp).max // 8:   # in streams
                    raise ValueError(f"E * batch_size = {self[0].E * size}: too many to draw")
                DX = np.array([o.data_x for o in objs])
                self.groups.append((objs[0], size, slice(k, k + len(objs)),
                                    (DX, np.array([o.data_y for o in objs])),
                                    np.maximum.reduce(np.abs(DX), axis=(1, 2))))
                k += len(objs)
            tune_malloc()
        self.end, self._block = None, None
        return self

    def for_rounds(self, end: int) -> "Cohort":
        """A copy for one run of the rounds below end, with its own block."""
        run = tuple.__new__(Cohort, self)
        run.__dict__.update(self.__dict__, end=end, _block=None)
        return run

    def streams(self, seed: int, r: int, tags: tuple) -> dict[str, list | np.ndarray]:
        """Per tag, seeds.stream(seed, tag, r, key) for each client, key its
        index for "sbpu" (which tags hold) and its id otherwise, but for "sbpu"
        the selector rows they draw, and for "train" the round's draws on them
        (draws).  Past the kept block, one seeds.child_seeds and one seeds.pcg64_words
        call derive rounds r to r + block - 1, cut at end (only r if end is None), one
        _SelectorPlan.rows call draws their selector rows and, for a quadratic cohort,
        one draws call on all their "train" generators (none built without a noisy row)
        draws their sphere noise, of which each round returns its slice.  Classifier
        batch indices and "defense" generators are made a round at a time."""
        b = self._block
        if b is None or b[:2] != (seed, tags) or not 0 <= r - b[2] < len(b[3]):
            n = 1 if self.end is None else min(self.block, max(self.end - r, 1))
            keys = {t: range(len(self)) if t == "sbpu" else [c.id for c in self] for t in tags}
            words = seeds.pcg64_words(seeds.child_seeds(seed, tags, range(r, r + n), keys)
                                      ).reshape(n, len(tags), -1, 4)
            sel = _selector_plan(self.template.layout).rows(words[:, tags.index("sbpu")].reshape(-1, 4))
            noise = None
            if self.quads is not None:   # the block's sphere noise: one draws call
                noise = self.draws([seeds.from_words(w) for w in words[:, tags.index("train")]
                                    .reshape(-1, 4)] if self.quads.rows else ())
                noise = [None] * n if noise is None else noise.reshape(n, -1, *noise.shape[1:])
            b = self._block = (seed, tags, r, words, sel.reshape(n, len(self), -1), noise)
        i = r - b[2]
        out = {t: b[4][i] if t == "sbpu" else [seeds.from_words(w) for w in ws]
               for t, ws in zip(tags, b[3][i]) if t != "train" or b[5] is None}
        out["train"] = self.draws(out["train"]) if b[5] is None else b[5][i]
        return out

    def draws(self, gens: Sequence[np.random.Generator]) -> np.ndarray | list | None:
        """A round's "train" draws, one call on each client's generator in gens: a
        QuadraticStack.noise block, or per classifier group its (k, E, batch_size) indices.
        A quadratic cohort's gens may hold several rounds, K generators a round (streams)."""
        return self.quads.noise(gens, self[0].E) if self.quads is not None else [
            np.array([g.integers(0, obj.n_samples, (self[0].E, size)) for g in gens[ks]])
            for obj, size, ks, _, _ in self.groups]


def _local_step(clients: Cohort, X: np.ndarray, eta: float, s: int, draws, D=None
                ) -> tuple[np.ndarray, list[float] | None, np.ndarray | None]:
    """Local iteration s of client k on row k of X (and a quadratic cohort's D = X - c
    from iteration s - 1): (new rows, their full losses if s is the last iteration
    E - 1, else None, a quadratic cohort's new D, else None).

    Rows stay flat; LayeredParams appears only at the history and the public
    functions.  Quadratic clients start from their row projected onto their
    radius-R ball and take projected sphere-noise gradient steps, all rows at
    once, with draws the round's noise block; rows whose projection flags them all
    in their balls, so finite, skip the rows' check.  Classifier clients each step
    X[k] + (-eta) * g on one batch sampled uniformly with replacement, one stacked
    backprop per Cohort group on a slice of the rows, with no copy, with draws
    per group its batch indices (k, E, batch_size): slices of data its
    objectives checked when built, which the kernels take unchecked.  The first client
    whose row is not finite raises params.NonFiniteError, or DivergenceError if only its
    loss is not.  A group's losses are one stacked _loss call over its data: at the last
    iteration all its rows, before it only the rows _loss_certified cannot show finite;
    0.0 stands in for the others.  Quadratic losses before the last iteration are
    computed only for a cohort that is not certified; a certified one checks its rows.
    """
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    quads, last, ok = clients.quads, s == clients[0].E - 1, False
    if quads is None:
        new, losses = np.empty_like(X), np.zeros(len(clients))
        for (obj, _, ks, (DX, DY), x_max), batches in zip(clients.groups, draws):
            at = (np.arange(len(DX))[:, None], batches[:, s])
            rows = np.add(X[ks], (-eta) * obj._grad(X[ks], (DX[at], DY[at])), out=new[ks])
            due = slice(None) if last else ~obj._loss_certified(rows, x_max)
            if last or due.any():
                losses[ks][due] = obj._loss(rows[due], (DX[due], DY[due]))
        X = new
    else:
        if s == 0:
            X, D, _ = quads.project(X)
        X, D, ok = quads.sgd_step(X, D, eta, draws, s)
        losses = quads.loss(X) if last or not clients.certified else None
    if not ((ok or np.isfinite(X).all()) and (losses is None or np.isfinite(losses).all())):
        k = int(np.argmin(np.isfinite(X).all(axis=1) & (losses is None or np.isfinite(losses))))
        if not np.isfinite(X[k]).all():
            raise P.NonFiniteError(f"client {clients[k].id}, local iteration {s}: "
                                   "non-finite value in parameters")
        raise DivergenceError(clients[k].id, s)
    return X, losses.tolist() if last else None, D


def local_train(c: ClientState, w_init: LayeredParams, schedule: LrSchedule,
                global_step_offset: int, rng: np.random.Generator) -> LayeredParams:
    """One client's E SGD iterations from w_init with the shared step-count
    schedule; run_round takes the same steps for all clients in lockstep.  Its
    E steps' noise or batches are one rng call, Cohort.draws, as in a round."""
    cohort, X = Cohort([c]), w_init.vector[None, :]
    P.check_same_shape(cohort.template, w_init)
    draws, D = cohort.draws([rng]), None
    for s in range(c.E):
        X, _, D = _local_step(cohort, X, schedule.lr_at(global_step_offset + s), s, draws, D)
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


def _fractions(sizes: Sequence[int]) -> list[float]:
    """The sample fractions p_k = n_k / N, the aggregation weights."""
    total = float(sum(sizes))
    return [n / total for n in sizes]


def _weighted_mean(X: np.ndarray, p: Sequence[float]) -> np.ndarray:
    """sum_k p_k * X[k] as a fresh vector: the anchor plus weighted
    deviations from the first row, so identical rows give that row bit for bit."""
    base, acc = X[0], X[0].copy()
    for x, pk in zip(X[1:], p[1:]):
        acc += pk * (x - base)
    return acc


def _divergence(X: np.ndarray, p: Sequence[float], layout: tuple) -> tuple[float, np.ndarray]:
    """(sum_k p_k * ||wbar - X[k]||^2, wbar) with wbar the p-weighted mean of the rows,
    a fresh vector; the bits of layer_sq_sums, with the deviations squared in place."""
    mean = _weighted_mean(X, p)
    V = mean - X
    return math.fsum(map(operator.mul, p, P._row_sq_sums(np.multiply(V, V, out=V), layout))), mean


def aggregate(updates: Sequence[LayeredParams], sizes: Sequence[int]) -> LayeredParams:
    """Sample-fraction weighted average, sum_k (n_k / N) * update_k."""
    return P._wrap(_weighted_mean(_checked_vectors(updates, sizes), _fractions(sizes)),
                   updates[0].layout)


def measure_divergence(client_weights: Sequence[LayeredParams],
                       sizes: Sequence[int]) -> float:
    """sum_k p_k * ||wbar - w_k||^2 with wbar the sample-weighted average."""
    return _divergence(_checked_vectors(client_weights, sizes), _fractions(sizes),
                       client_weights[0].layout)[0]


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
    the last iteration; the new aggregate is a copy of the round's mean.
    A non-finite dispatched model, envelope quantity (alpha given), trained row,
    client divergence, new aggregate or global loss raises params.NonFiniteError
    naming the round.
    """
    cohort = Cohort(clients)
    P.check_same_shape(cohort.template, h.w_glb)
    p, E = cohort.weights, cohort[0].E

    tags = ("sbpu", "train") if policy.tag == "none" else ("sbpu", "train", "defense")
    streams = cohort.streams(seed, h.round, tags)
    dispatched = _dispatch_matrix(h, rates, streams["sbpu"])

    reports = [] if alpha is None else _envelopes(dispatched, h, alpha)
    for c, b in zip(cohort, reports):
        if not all(map(math.isfinite, (b.dist_sq, b.delta_sq, b.lower, b.upper))):
            raise P.NonFiniteError(f"round {h.round}, client {c.id}: non-finite "
                                   f"envelope quantity in {b}")

    trained, D, step_divergences = dispatched, None, []
    for s in range(E):
        try:
            trained, losses, D = _local_step(cohort, trained, schedule.lr_at(h.round * E + s),
                                             s, streams["train"], D)
        except P.NonFiniteError as e:
            raise P.NonFiniteError(f"round {h.round}, {e}") from e
        d, mean = _divergence(trained, p, h.w_glb.layout)
        step_divergences.append(d)
    for s, d in enumerate(step_divergences):   # checked after training: DivergenceError first
        if not math.isfinite(d):
            raise P.NonFiniteError(f"round {h.round}, local step {s}: non-finite divergence {d}")

    if policy.tag != "none":   # the identity defense aggregates the last step's mean
        mean = _weighted_mean(dispatched + np.array([
            _defend(delta, policy, rng)
            for rng, delta in zip(streams["defense"], trained - dispatched)]), p)
    try:
        new_glb = P._wrap(mean.copy(), h.w_glb.layout)   # checked; see the module docstring
    except P.NonFiniteError as e:
        raise P.NonFiniteError(f"round {h.round}: non-finite value in the new aggregate") from e
    glb_losses = np.empty(len(cohort)) if cohort.quads is None else cohort.quads.loss(new_glb.vector)
    for obj, _, ks, data, _ in cohort.groups:   # classifiers: the aggregate over each group's data
        glb_losses[ks] = obj._loss(new_glb.vector, data)
    global_loss = math.fsum(map(operator.mul, p, glb_losses.tolist()))
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


def run_federation(plan: RunPlan) -> list[RoundRecord]:
    """Run all rounds and return their records."""
    return [rec for _, rec in iter_rounds(plan)]

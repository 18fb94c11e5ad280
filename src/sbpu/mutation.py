"""Stochastic bidirectional parameter updates.

The server keeps the current aggregate plus the two previous ones and forms
two lagged gradients, g = w_glb - w_prev and g' = w_glb - w_prev2.  For each
layer a shuffled list over {-1, +1, -2, +2} assigns every filter a signed
branch: +-1 entries add beta1 * s * g to that filter, +-2 entries add
beta2 * s * g'.  Repeating this with independent shuffles per client yields
K diverse models in a close neighborhood of the aggregate.

The list holds floor(f/4) copies of each element type; when f is not a
multiple of 4 the remaining r = f - 4*floor(f/4) slots are filled from the
fixed cycle [-1, +1, -2, +2] before shuffling, which keeps the multiset
deterministic and near-balanced (and covers tiny layers with f < 4).

A model's lists come from a generator only through build_stochastic_list,
layer by layer (sbpu_mutate, generate_diverse_models).  The round engine
draws a block's lists with the same bits from its seed words and no
generator, through the layout's cached selector plan (_SelectorPlan.rows).
A round's K diverse models are the rows of one C-contiguous (K, d) matrix,
which generate_diverse_models wraps as LayeredParams.  One kernel,
_envelopes, audits dispatched rows against the history: the round engine's
(K, d) matrix, or check_neighborhood_bound's one shape-checked row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import params as P
from . import seeds
from .params import LayeredParams

PAD_CYCLE = (-1, 1, -2, 2)
BOUND_SLACK = 1e-9   # relative slack for double-precision summation noise
_BETA1_BRANCH = np.array([False, True, False, True, False])   # |s| == 1, by s + 2
_CHUNK = 4096   # draws per row chunk in _SelectorPlan.rows: its temporaries stay near 64 KiB


@dataclass(frozen=True)
class DiversityRates:
    """Scales of the +-1 and +-2 branches."""

    beta1: float
    beta2: float

    def __post_init__(self):
        if not (0.0 <= self.beta1 < math.inf and 0.0 <= self.beta2 < math.inf):
            raise ValueError(f"diversity rates must be finite and >= 0: {self}")

    @classmethod
    def from_beta(cls, beta: float) -> "DiversityRates":
        """Conventional single-knob form: beta1 = beta, beta2 = beta^2."""
        return cls(beta1=beta, beta2=beta * beta)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """beta * s by s + 2, read-only: the branch coefficients _branch_update looks up."""
        t = np.array([-2.0 * self.beta2, -self.beta1, 0.0, self.beta1, 2.0 * self.beta2])
        t.flags.writeable = False
        return t


@dataclass(frozen=True)
class GlobalHistory:
    """Current aggregate plus the two previous ones, with the round counter."""

    w_glb: LayeredParams
    w_prev: LayeredParams
    w_prev2: LayeredParams
    round: int = 0

    def __post_init__(self):
        P.check_same_shape(self.w_glb, self.w_prev)
        P.check_same_shape(self.w_glb, self.w_prev2)
        if self.round < 0:
            raise ValueError("round must be >= 0")
        if self.round < 2:
            if not (self.w_prev == self.w_glb and self.w_prev2 == self.w_glb):
                raise ValueError("bootstrap rounds require all three models equal")

    @classmethod
    def bootstrap(cls, w0: LayeredParams) -> "GlobalHistory":
        return cls(w_glb=w0, w_prev=w0, w_prev2=w0, round=0)

    def rotated(self, new_glb: LayeredParams, tie_gradients: bool = False) -> "GlobalHistory":
        """Advance one round.

        Normally w_prev2 <- w_prev and w_prev <- old w_glb.  With
        tie_gradients both lagged slots get the old aggregate so the two
        lagged gradients coincide (the compliant-bound regime).
        """
        nxt = self.round + 1
        if nxt < 2:
            # the two lagged slots track the fresh aggregate until round 2
            return GlobalHistory(w_glb=new_glb, w_prev=new_glb, w_prev2=new_glb, round=nxt)
        w_prev = self.w_glb
        w_prev2 = self.w_glb if tie_gradients else self.w_prev
        return GlobalHistory(w_glb=new_glb, w_prev=w_prev, w_prev2=w_prev2, round=nxt)


@dataclass(frozen=True)
class BoundReport:
    """One neighborhood-bound measurement for a single diverse model."""

    dist_sq: float
    delta_sq: float
    lower: float
    upper: float
    holds: bool


def stochastic_multiset(f: int) -> list[int]:
    """The deterministic multiset before shuffling (counts + padding rule)."""
    if f < 1:
        raise ValueError("f must be >= 1")
    q = f // 4
    base = [-1] * q + [1] * q + [-2] * q + [2] * q
    base += list(PAD_CYCLE[: f - 4 * q])
    return base


def build_stochastic_list(f: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffled branch selector for a layer of f filters (length f)."""
    return seeds.fisher_yates(stochastic_multiset(f), rng)


def _selectors(layout: tuple, rng: np.random.Generator) -> list[np.ndarray]:
    """A model's selector lists from rng: build_stochastic_list for each layer, in order."""
    return [build_stochastic_list(nf, rng) for nf, _, _ in layout]


@dataclass(frozen=True)
class _SelectorPlan:
    """The run-invariant part of a layout's selector lists, _selectors flattened, for
    rows(): it draws them from seed words, with no generator."""

    layout: tuple
    multiset: np.ndarray    # every layer's stochastic_multiset, concatenated
    columns: np.ndarray     # (3, draws, 1): bounds (each layer's np.arange(nf, 1, -1)),
                            # swaps (the flat index i of each draw) and offsets (a layer's
                            # first flat index; j is relative)
    repeats: tuple | None   # scalars per filter, for np.repeat (None if all 1)

    def rows(self, words: np.ndarray) -> np.ndarray:
        """Row k: np.concatenate(_selectors(layout, seeds.from_words(words[k]))), without
        generators: seeds.lemire draws each row's js from its seeds.pcg64_raw outputs, and a
        chunk of rows makes each swap in all its rows at once.  A row that numpy may have
        redrawn is drawn through its generator."""
        n, f = self.columns.shape[1], self.multiset.size
        out = self.multiset.astype(np.int8)[None].repeat(len(words), axis=0)   # a block stays small
        flat, (b, i, o) = out.reshape(-1), self.columns
        size = max(_CHUNK // max(n, 1), 1)
        for c in range(0, len(words) if n else 0, size):
            w = words[c:c + size]
            j, redo = seeds.lemire(seeds.pcg64_raw(w, (n + 1) // 2), b.view(np.uint64).T, n)
            base = np.arange(c * f, (c + len(w)) * f, f)   # each row's first flat index
            at = (base + i, base + o + j.T)   # (draws, rows) swap pairs
            for x, y in zip(np.concatenate(at, axis=1), np.concatenate(at[::-1], axis=1)):
                flat[x] = flat[y]
            for k in np.flatnonzero(redo):
                out[c + k] = np.concatenate(_selectors(self.layout, seeds.from_words(w[k])))
        return out


@functools.lru_cache(maxsize=128)
def _selector_plan(layout: tuple) -> _SelectorPlan:
    """The layout's plan, shared by every caller: its arrays are read-only."""
    multiset, bounds, swaps, offsets, pos = [], [], [], [], 0
    for nf, _, _ in layout:
        multiset += stochastic_multiset(nf)
        bounds += range(nf, 1, -1)
        swaps += range(pos + nf - 1, pos, -1)
        offsets += [pos] * (nf - 1)
        pos += nf
    arrays = (np.array(multiset),
              np.array([bounds, swaps, offsets], dtype=np.int64)[:, :, None])
    for a in arrays:
        a.flags.writeable = False
    repeats = tuple(fl for nf, fl, _ in layout for _ in range(nf))
    return _SelectorPlan(layout, arrays[0], arrays[1],
                         None if all(fl == 1 for fl in repeats) else repeats)


def apply_stochastic_lists(w_glb: LayeredParams, g_glb: LayeredParams,
                           g_prev: LayeredParams, rates: DiversityRates,
                           lists: Sequence[Sequence[int]]) -> LayeredParams:
    """Per-filter branch update for explicitly supplied selector lists."""
    P.check_same_shape(w_glb, g_glb)
    P.check_same_shape(w_glb, g_prev)
    layout = w_glb.layout
    if len(lists) != len(layout):
        raise ValueError(f"need one list per layer, got {len(lists)} for {len(layout)}")
    sels = [np.asarray(sel, dtype=np.int64).ravel() for sel in lists]
    for i, ((nf, _, _), sel) in enumerate(zip(layout, sels)):
        if sel.size != nf:
            raise ValueError(f"layer {i}: list length {sel.size} != {nf} filters")
        if not np.all(np.isin(sel, (-1, 1, -2, 2))):
            raise ValueError(f"layer {i}: entries must come from {{-1, +1, -2, +2}}")
    return P.from_vector(_branch_update(w_glb.vector, g_glb.vector, g_prev.vector, rates,
                                        np.concatenate(sels), layout), w_glb)


def _branch_update(w: np.ndarray, g: np.ndarray, g_prev: np.ndarray, rates: DiversityRates,
                   sel: np.ndarray, layout: tuple) -> np.ndarray:
    """w + beta1 * s * g where |s| == 1, else w + beta2 * s * g_prev, for the
    filter selectors sel (one row per model, or one model) repeated over each
    filter's scalars.  beta * s is looked up, with the bits of the product.  Tied
    gradients (g_prev is g) take g for both branches, with no np.where."""
    at = sel + 2
    coef, repeats = rates.table[at], _selector_plan(layout).repeats
    if repeats is not None:   # np.repeat keeps the rows C-contiguous
        coef = np.repeat(coef, repeats, axis=-1)
    if g_prev is g:
        return w + coef * g
    one = _BETA1_BRANCH[at] if repeats is None else np.repeat(_BETA1_BRANCH[at], repeats, axis=-1)
    return w + coef * np.where(one, g, g_prev)


def sbpu_mutate(w_glb: LayeredParams, g_glb: LayeredParams, g_prev: LayeredParams,
                rates: DiversityRates, rng: np.random.Generator) -> LayeredParams:
    """One diverse model: fresh shuffled list per layer, then the branch update."""
    return apply_stochastic_lists(w_glb, g_glb, g_prev, rates, _selectors(w_glb.layout, rng))


def _dispatch_matrix(h: GlobalHistory, rates: DiversityRates, sel: np.ndarray) -> np.ndarray:
    """The K diverse models as the rows of one checked, C-contiguous (K, d) float64
    matrix, row k's filter selectors sel[k]: client k's lists from its own (seed,
    "sbpu", round, k) stream (_selectors, or _SelectorPlan.rows from its words).  One
    value in both lagged slots (tied gradients, bootstrap) forms g once."""
    w = h.w_glb.vector
    g = w - h.w_prev.vector
    g_prev = g if h.w_prev2 is h.w_prev else w - h.w_prev2.vector
    X = _branch_update(w, g, g_prev, rates, sel, h.w_glb.layout)
    if not np.isfinite(X).all():
        raise P.NonFiniteError(f"round {h.round}: non-finite value in the dispatched models")
    return X


def generate_diverse_models(h: GlobalHistory, K: int, rates: DiversityRates,
                            seed: int) -> list[LayeredParams]:
    """K independently mutated copies of the aggregate, ordered by client.

    Each client consumes its own RNG stream derived from (seed, round,
    client index), so results are identical under any evaluation order.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    layout = h.w_glb.layout
    sel = np.array([np.concatenate(_selectors(layout, seeds.stream(seed, "sbpu", h.round, k)))
                    for k in range(K)])
    return [P.from_vector(x, h.w_glb) for x in _dispatch_matrix(h, rates, sel)]


def _envelopes(X: np.ndarray, h: GlobalHistory, alpha: float) -> list[BoundReport]:
    """A report per row x of X: ||x - w_glb||^2 against delta = w_glb - w_prev."""
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    w, layout = h.w_glb.vector, h.w_glb.layout
    delta, V = w - h.w_prev.vector, X - w   # fresh differences: squared in place
    delta_sq = P._row_sq_sums(np.multiply(delta, delta, out=delta)[None], layout)[0]
    lower = alpha * alpha * delta_sq
    upper = 4.0 * alpha * alpha * delta_sq
    reports = []
    for dist_sq in P._row_sq_sums(np.multiply(V, V, out=V), layout):
        slack = BOUND_SLACK * max(dist_sq, upper, 1e-300)
        # an overflowed distance would make the slack infinite and always hold
        holds = math.isfinite(dist_sq) and (lower - slack) <= dist_sq <= (upper + slack)
        reports.append(BoundReport(dist_sq=dist_sq, delta_sq=delta_sq, lower=lower,
                                   upper=upper, holds=holds))
    return reports


def check_neighborhood_bound(w_loc: LayeredParams, h: GlobalHistory,
                             alpha: float) -> BoundReport:
    """Measure alpha^2*||delta||^2 <= ||w_loc - w_glb||^2 <= 4*alpha^2*||delta||^2."""
    P.check_same_shape(w_loc, h.w_glb)
    return _envelopes(w_loc.vector[None], h, alpha)[0]

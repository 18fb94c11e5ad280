"""Client loss functions and SGD machinery.

Two families of objectives are supported:

* QuadraticObjective -- f(w) = 0.5 (w-c)^T A (w-c) with A symmetric positive
  definite.  Used for quantitative verification of the convergence theorem:
  it is L-smooth with L = lambda_max(A) and mu-strongly convex with
  mu = lambda_min(A), and its constants are computable exactly.
* ClassifierObjective -- a tiny fully connected softmax classifier with
  analytic backprop gradients.  Used as the attack testbed.

Strong convexity forces unbounded gradients globally, so the bounded-
gradient constant G is defined on a projection ball of radius R around the
quadratic's center: stochastic gradients there satisfy ||g|| <= L*R + sigma.
Stochastic noise is drawn uniformly from the sphere of radius sigma, so the
variance bound holds with equality and the norm bound holds surely.  QuadraticStack
steps on the centred rows X - c its projection hands on, with a finiteness flag.

Kernel rule: the per-call kernels use np.add.reduce, np.maximum.reduce and
np.array, not np.sum, np.max, np.mean or np.stack, whose Python-level dispatch
outweighs the arithmetic on these shapes; the bits are the same, and
tests/test_kernel_rule.py keeps the rule.  The classifier has one forward pass
(_forward), which its loss, gradient and logits share: each layer's matmul
output takes the bias and activation in place, and backprop reads each
activation's derivative from its output.  The loss takes its class-axis max a
column at a time (_max_columns), since numpy reduces a short last axis row by
row, and sums its exponentials with numpy's own reduce; over a stack of clients'
data it runs whole clients at a time, each run's widest activation within
LOSS_BLOCK_BYTES, which changes no bit, since the stacked matmul gives each
client the bits it gets alone and the rest works row by row.  The kernels take a
checked batch: only the public loss and grad check one (_batch), and the
round engine's are slices of data each objective checked when it was built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import params as P
from .params import LayeredParams


def _widths(what: str, layer: int, *widths) -> tuple[int, ...]:
    """A layer's widths as ints; integral values (numpy ints too) only."""
    try:
        return tuple(map(operator.index, widths))
    except TypeError:
        raise ValueError(f"{what} layer {layer}: widths must be integers, got {widths}") from None


# ---------------------------------------------------------------------------
# quadratic objectives

@dataclass(frozen=True)
class QuadraticObjective:
    """0.5 (w - c)^T A (w - c) with sphere-noise stochastic gradients."""

    matrix: np.ndarray          # symmetric positive definite, d x d
    center: np.ndarray          # d
    noise_sigma: float = 0.0
    radius: float = 1.0         # projection-ball radius around center
    layout: tuple[tuple[int, int], ...] = None  # (n_filters, width) per layer

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=np.float64)
        c = np.asarray(self.center, dtype=np.float64).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != c.size or c.size < 1:
            raise ValueError("matrix must be d x d matching the center length")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
            raise ValueError("matrix must be symmetric within 1e-12")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] <= 0.0:
            raise ValueError(f"matrix must be positive definite (min eigenvalue {eigs[0]:g})")
        if not np.isfinite(c).all():
            raise ValueError("center must be finite")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if not 0.0 < self.radius < np.inf:
            raise ValueError("radius must be finite and > 0")
        layout = ((1, c.size),) if self.layout is None else self.layout
        layout = tuple(_widths("layout", n, nf, w) for n, (nf, w) in enumerate(layout))
        if sum(nf * w for nf, w in layout) != c.size:
            raise ValueError(f"layout {layout} does not cover dimension {c.size}")
        a = a.copy(); a.flags.writeable = False
        c = c.copy(); c.flags.writeable = False
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_eigs", eigs)   # ascending: L and mu, computed once
        object.__setattr__(self, "_template", P.from_arrays([np.zeros(s) for s in layout]))
        object.__setattr__(self, "_stack", QuadraticStack([self]))

    @property
    def smoothness(self) -> float:
        return float(self._eigs[-1])

    @property
    def strong_convexity(self) -> float:
        return float(self._eigs[0])

    def template(self) -> LayeredParams:
        """A zero LayeredParams with this objective's layer layout."""
        return self._template

    def loss(self, w: LayeredParams, batch=None) -> float:
        return float(self._stack.loss(w.vector)[0])

    def grad(self, w: LayeredParams, batch=None) -> LayeredParams:
        dv = w.vector - self.center
        return P.from_vector(self.matrix @ dv, self._template)

    def stochastic_grad(self, w: LayeredParams, rng: np.random.Generator) -> LayeredParams:
        """Exact gradient plus uniform sphere noise of radius sigma.

        Requires w inside the projection ball; callers project first.
        """
        D = w.vector[None] - self.center
        r = float(np.linalg.norm(D))
        if r > self.radius * (1.0 + 1e-12):
            raise ValueError(f"w outside projection ball: distance {r:g} > radius {self.radius:g}")
        return P.from_vector(
            self._stack.stochastic_grad(D, self._stack.noise([rng], 1), 0)[0], self._template)

    def project(self, w: LayeredParams) -> LayeredParams:
        """Euclidean projection onto the ball of radius R around the center."""
        with np.errstate(over="ignore"):   # a far point's distance may overflow
            return P.from_vector(self._stack.project(w.vector[None])[0][0], self._template)


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of V as one self-dot per row (np.vecdot): the
    bits of np.linalg.norm per row (einsum and norm(axis=1) sum differently); a row
    past about 1.3e154 gives inf, with numpy's "overflow encountered in vecdot"."""
    return np.sqrt(np.vecdot(V, V))


def _project_rows(X: np.ndarray, center: np.ndarray, radius: np.ndarray,
                  D: np.ndarray | None = None, r: np.ndarray | None = None) -> np.ndarray:
    """Row k of X, or center[k] + (x - center[k]) * R/r when it lies r > R =
    radius[k] from center[k]; only those rows are divided, and a finite one
    whose r overflows (past about 1.3e154) by its largest |x - c| first.  A caller
    holding D = X - center and r = _row_norms(D) passes them, to be overwritten.
    The public projections silence the overflow's numpy notice (in vecdot); the round
    engine, where np.errstate would cost about 1 us a step, leaves it, as it does others."""
    if D is None:
        D = X - center
        r = _row_norms(D)
    out = r > radius
    if not out.any():
        return X
    far = np.flatnonzero((r == np.inf) & np.isfinite(D).all(axis=1))
    if far.size:
        D[far] /= np.maximum.reduce(np.abs(D[far]), axis=1)[:, None]
        r[far] = _row_norms(D[far])
    X = X.copy()
    X[out] = center[out] + D[out] * (radius[out] / r[out])[:, None]
    return X


class QuadraticStack:
    """K quadratic objectives stacked along a leading axis: row k of every
    (K, d) array belongs to objective k.

    A QuadraticObjective runs its loss, projection and stochastic gradient
    through a one-row stack, and checks its ball there: the stack's
    stochastic gradient trusts its rows to lie in their balls, as sgd_step's
    projected rows do.  A noisy row's round of noise is one standard_normal call,
    which numpy fills as E standard_normal(d) calls would.  The stacked forms
    (np.matmul for A @ x and x @ A, np.vecdot, _row_norms) give each row the
    bits it gets alone.
    """

    def __init__(self, objs: Sequence[QuadraticObjective]):
        self.matrix = np.array([o.matrix for o in objs])
        self.center = np.array([o.center for o in objs])
        self.radius = np.array([o.radius for o in objs])
        self.sigma = np.array([o.noise_sigma for o in objs])
        rows = np.flatnonzero(self.sigma > 0.0)
        self.rows = rows.tolist()   # the noisy rows, as a slice when all are: no fancy index
        self.noisy = slice(None) if rows.size == len(objs) else rows
        self.scale = self.sigma[self.noisy, None, None]   # noise's sigma column, per noisy row

    def loss(self, X: np.ndarray, D: np.ndarray | None = None) -> np.ndarray:
        """Objective k's loss at row k of X (or at X itself, when 1-D); D = X - c if given."""
        D = X - self.center if D is None else D
        return 0.5 * np.vecdot(np.matmul(D[:, None, :], self.matrix)[:, 0], D)

    def project(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
        """(_project_rows(X), its D = rows - center, ok), ok true only when every row's norm
        r has r <= R, so no row moved and all are finite (a NaN or inf r fails <=)."""
        D = X - self.center
        r = _row_norms(D)
        if np.logical_and.reduce(r <= self.radius):
            return X, D, True
        X = _project_rows(X, self.center, self.radius, D, r)
        return X, X - self.center, False

    def noise(self, rngs: Sequence[np.random.Generator], E: int) -> np.ndarray | None:
        """E steps' sphere noise of one round or several, rngs holding K generators a
        round, round after round: each round's noisy rows, (rounds * noisy rows, E, d),
        None if no row is noisy.  A round's noisy row i (objective rows[i]) fills its
        (E, d) block in one standard_normal call on that round's generator rows[i]; then
        one stacked _row_norms covers every block, any all-zero draw is redrawn from the
        generator that made it, and each draw is scaled to norm sigma.  One round's
        generators give the one-round array; row bits do not depend on the rounds."""
        if not self.rows:
            return None
        K, d = self.center.shape
        gens = [rngs[q + k] for q in range(0, len(rngs), K) for k in self.rows]
        xi = np.empty((len(gens), E, d))
        for g, block in zip(gens, xi):
            g.standard_normal(out=block)
        flat = xi.reshape(-1, d)
        n = _row_norms(flat)
        while not n.all():   # the first zero norm, until none is left
            j = n.argmin()
            gens[j // E].standard_normal(out=flat[j])
            n[j] = np.linalg.norm(flat[j])
        rounds = xi.reshape(-1, len(self.rows), E, d)
        rounds *= self.scale / n.reshape(-1, len(self.rows), E, 1)
        return xi

    def stochastic_grad(self, D: np.ndarray, noise: np.ndarray | None, s: int) -> np.ndarray:
        """Row k: objective k's gradient at the centred row D[k] = x - c plus its step s
        of noise (a noise block), for rows inside their balls (unchecked)."""
        G = np.matmul(self.matrix, D[:, :, None])[:, :, 0]
        if noise is not None and isinstance(self.noisy, slice):   # all noisy: no view set back
            G += noise[:, s]
        elif noise is not None:
            G[self.noisy] += noise[:, s]
        return G

    def sgd_step(self, X: np.ndarray, D: np.ndarray, eta: float, noise: np.ndarray | None,
                 s: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """One projected stochastic gradient step s per row (sgd_step with the ball) at
        an eta > 0 the caller has checked, from rows X inside their balls and their D:
        project's triple.  Its rows are in their balls, up to rounding, which is what
        lets the stack skip the ball check and a Cohort certify their losses finite."""
        return self.project(X + (-eta) * self.stochastic_grad(D, noise, s))


# ---------------------------------------------------------------------------
# learning-rate schedule and assumption constants

@dataclass(frozen=True)
class LrSchedule:
    """eta_t = 2 / (mu * (t + gamma)); strictly positive and decreasing."""

    mu: float
    gamma: float

    def __post_init__(self):
        if self.mu <= 0.0 or self.gamma <= 0.0:
            raise ValueError("mu and gamma must be positive")

    def lr_at(self, t: int) -> float:
        return 2.0 / (self.mu * (t + self.gamma))


@dataclass(frozen=True)
class AssumptionConstants:
    L: float
    mu: float
    sigma: tuple[float, ...]
    G: float
    kappa: float
    gamma: float

    def __post_init__(self):
        if not (self.L >= self.mu > 0.0):
            raise ValueError("need L >= mu > 0")
        if self.G <= 0.0:
            raise ValueError("need G > 0")


def constants_for(objs: Sequence[QuadraticObjective], E: int, R: float) -> AssumptionConstants:
    """Federation-wide smoothness/convexity/noise/gradient-norm constants.

    L and mu are the extreme eigenvalues across clients; G = L*R + max sigma_i
    bounds every stochastic gradient on the radius-R ball.
    """
    if not objs:
        raise ValueError("need at least one objective")
    shapes = {o.template().shape for o in objs}
    if len(shapes) > 1:
        raise ValueError("objectives must share one parameter shape")
    L = max(o.smoothness for o in objs)
    mu = min(o.strong_convexity for o in objs)
    sigma = tuple(o.noise_sigma for o in objs)
    G = L * R + max(sigma)
    kappa = L / mu
    return AssumptionConstants(L=L, mu=mu, sigma=sigma, G=G, kappa=kappa,
                               gamma=max(8.0 * kappa, float(E)))


# ---------------------------------------------------------------------------
# SGD step

def sgd_step(w: LayeredParams, g: LayeredParams, eta: float,
             ball: tuple[np.ndarray, float] | None = None) -> LayeredParams:
    """w - eta*g, then Euclidean projection onto the ball when given."""
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    out = P.add_scaled(w, -eta, g)
    if ball is None:
        return out
    center = np.asarray(ball[0], dtype=np.float64).reshape(1, -1)
    with np.errstate(over="ignore"):   # a far point's distance may overflow
        return P.from_vector(_project_rows(out.vector[None], center, np.array([ball[1]]))[0], out)


# ---------------------------------------------------------------------------
# tiny softmax classifier

# hidden-layer activation tag -> (a(z) written into z; da/dz given a = a(z): for relu and
# lrelu a > 0 exactly where z > 0, also for NaN, signed zeros and subnormals)
_ACTS = {
    "sigmoid": (lambda z: np.divide(1.0, np.add(np.exp(np.negative(z, out=z), out=z), 1.0, out=z),
                                    out=z),
                lambda a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: (a > 0.0).astype(np.float64)),
    "lrelu": (lambda z: np.multiply(z, np.where(z > 0.0, 1.0, 0.01), out=z),
              lambda a: np.where(a > 0.0, 1.0, 0.01)),
}
ACTIVATIONS = tuple(_ACTS)
LOSS_BLOCK_BYTES = 1 << 19  # a stacked loss's widest activation, at most; one row at least


def _max_columns(a: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(a, axis=-1), bit for bit (a max is exact in any order)."""
    m = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j], out=m)
    return m


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


@dataclass(frozen=True)
class ClassifierObjective:
    """Fully connected softmax classifier over a fixed labeled dataset.

    architecture: (in_dim, out_dim, activation) per hidden layer; the final
    entry must use activation "linear", and its out_dim is n_c.  Parameters
    live in a LayeredParams with one weight layer (out x in filters-as-rows)
    and one bias layer per dense layer.  logits, predict, loss and grad check
    that layout once and run the flat-vector kernels the round engine calls.
    """

    architecture: tuple[tuple[int, int, str], ...]
    data_x: np.ndarray = None     # (n, in_dim)
    data_y: np.ndarray = None     # (n,) int labels
    n_c: int = field(init=False)   # the final layer's width

    def __post_init__(self):
        arch = tuple((*_widths("architecture", n, i, o), str(a))
                     for n, (i, o, a) in enumerate(self.architecture))
        if not arch:
            raise ValueError("architecture must be non-empty")
        if arch[-1][2] != "linear":
            raise ValueError("final layer must be linear (softmax applied in the loss)")
        for i, o, a in arch[:-1]:
            if a not in ACTIVATIONS:
                raise ValueError(f"activation must be one of {ACTIVATIONS}, got {a!r}")
        for (_, o1, _), (i2, _, _) in zip(arch, arch[1:]):
            if o1 != i2:
                raise ValueError("layer dimensions do not chain")
        n_c = arch[-1][1]
        x = None if self.data_x is None else np.asarray(self.data_x, dtype=np.float64)
        y = None if self.data_y is None else np.asarray(self.data_y, dtype=np.int64).ravel()
        if (x is None) != (y is None):
            raise ValueError("data_x and data_y go together")
        if x is not None:
            if x.ndim != 2 or x.shape[1] != arch[0][0]:
                raise ValueError("data_x must be (n, in_dim)")
            if x.shape[0] == 0:
                raise ValueError("embedded dataset must be non-empty")
            if y.size != x.shape[0] or np.any(y < 0) or np.any(y >= n_c):
                raise ValueError("labels must be in [0, n_c)")
            x = x.copy(); x.flags.writeable = False
            y = y.copy(); y.flags.writeable = False
        object.__setattr__(self, "architecture", arch)
        object.__setattr__(self, "data_x", x)
        object.__setattr__(self, "data_y", y)
        object.__setattr__(self, "n_c", n_c)
        zeros = [np.zeros(s) for i, o, _ in arch for s in ((o, i), (1, o))]
        object.__setattr__(self, "_template", P.from_arrays(zeros, ["weight", "bias"] * len(arch)))
        dense, pos = [], 0   # per layer: W's index, W's shape, b's index (as a row), activation
        for i, o, a in arch:
            dense.append(((..., slice(pos, pos + o * i)), (o, i),
                          (..., None, slice(pos + o * i, pos + o * i + o)), a))
            pos += o * i + o
        object.__setattr__(self, "_dense", tuple(dense))

    @property
    def n_samples(self) -> int:
        return 0 if self.data_x is None else self.data_x.shape[0]

    def template(self) -> LayeredParams:
        """The zero LayeredParams: one (out, in) weight and one bias layer per dense layer."""
        return self._template

    def init_params(self, rng: np.random.Generator, scale: float = 0.1) -> LayeredParams:
        """Scaled standard-normal weights (drawn layer by layer), zero biases."""
        v = self._template.vector.copy()
        for w_at, shape, _, _ in self._dense:
            v[w_at] = (scale * rng.standard_normal(shape)).ravel()
        return P.from_vector(v, self._template)

    def _forward(self, v: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        """On the checked float64 batch x, each layer's input, then the logits, at the
        flat vector v: one np.matmul per layer, whose output takes the bias and the
        activation in place (x itself is never written).

        v may also hold K rows (K, d) with x a (K, b, in) batch per row: np.matmul
        runs over the leading axis and gives each row the bits it gets alone."""
        hs = [x]
        for w_at, shape, b_at, a in self._dense:
            h = np.matmul(hs[-1], v[w_at].reshape(v.shape[:-1] + shape).mT)
            h += v[b_at]
            hs.append(h if a == "linear" else _ACTS[a][0](h))
        return hs

    def _batch(self, batch):
        if batch is None:
            if self.data_x is None:
                raise ValueError("no embedded dataset and no batch given")
            return self.data_x, self.data_y
        x, y = batch
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.int64).ravel()
        if x.shape[-2] == 0:
            raise ValueError("empty batch")
        if y.size * x.shape[-1] != x.size or not ((0 <= y) & (y < self.n_c)).all():
            raise ValueError("batch needs one label in [0, n_c) per input row")
        return x, y

    def _loss(self, v: np.ndarray, batch=None) -> float | np.ndarray:
        """Mean cross-entropy at the flat vector v on a checked batch (x, y), y of any
        shape (None: the embedded data): a float.  On K rows (K, d), or v broadcast,
        with a (K, n, in) batch, one loss per row with the bits that row gets alone,
        evaluated in runs of whole rows whose widest activation stays within
        LOSS_BLOCK_BYTES (one row at least), their losses concatenated.  The logits
        from _forward take the shift by their class-axis max (taken a column at a time)
        and, once the labels' logits are read, exp in place."""
        x, y = batch or (self.data_x, self.data_y)
        run = max(1, LOSS_BLOCK_BYTES // (8 * x.shape[-2]
                                          * max(o for _, o, _ in self.architecture)))
        if x.ndim == 3 and run < len(x):
            y = y.reshape(x.shape[:-1])
            return np.concatenate([self._loss(v if v.ndim == 1 else v[i:i + run],
                                              (x[i:i + run], y[i:i + run]))
                                   for i in range(0, len(x), run)])
        h = self._forward(v, x)[-1]
        h -= _max_columns(h)[..., None]
        logp = h.reshape(-1)[np.arange(0, h.size, self.n_c) + y.ravel()].reshape(h.shape[:-1])
        logp -= np.log(np.add.reduce(np.exp(h, out=h), axis=-1))
        loss = -(np.add.reduce(logp, axis=-1) / logp.shape[-1])
        return float(loss) if loss.ndim == 0 else loss

    def _loss_certified(self, v: np.ndarray, x_max) -> np.ndarray:
        """True only if _loss(v) on the embedded data, whose largest |x| is x_max, is finite;
        on K rows (K, d) and K such maxima, one such bool per row.

        With ||h||_inf <= H, a dense layer has ||z||_inf <= B = max_i sum_j |W_ij| H
        + max_i |b_i| and output ||h||_inf <= B (relu, lrelu, linear) or <= 1
        (sigmoid).  Every layer's B < 1e300 / n keeps the logits finite and each
        of _loss's n terms within 2B + log n_c, so their sum stays below
        2e300 + n log n_c: a 1e8 margin to overflow, which also covers the
        bound's own rounding.  A NaN or inf anywhere fails the comparison.
        """
        a, h, ok, lead, limit = np.abs(v), x_max, True, v.shape[:-1], 1e300 / self.n_samples
        with np.errstate(over="ignore", invalid="ignore"):   # such rows fail, silently
            for w_at, shape, b_at, act in self._dense:
                B = (np.maximum.reduce(np.add.reduce(a[w_at].reshape(lead + shape), axis=-1),
                                       axis=-1) * h + np.maximum.reduce(a[b_at], axis=(-2, -1)))
                ok = ok & (B < limit)
                h = 1.0 if act == "sigmoid" else B
        return ok

    def _grad(self, v: np.ndarray, batch=None) -> np.ndarray:
        """Mean cross-entropy gradient at the flat vector v by backprop on a checked batch,
        as _loss takes it; on K rows (K, d) with a (K, b, in) batch, row k's on batch k."""
        x, y = batch or (self.data_x, self.data_y)
        lead = v.shape[:-1]
        hs = self._forward(v, x)
        delta = softmax(hs[-1])         # fresh: the probabilities, then dL/dz
        delta.reshape(-1)[np.arange(0, delta.size, self.n_c) + y.ravel()] -= 1.0
        delta /= x.shape[-2]            # logit gradient of the mean loss
        g = np.empty(v.shape)           # written through views: each reshape splits a last axis
        for li in range(len(self._dense) - 1, -1, -1):
            w_at, shape, b_at, _ = self._dense[li]
            np.add.reduce(delta, axis=-2, keepdims=True, out=g[b_at])
            np.matmul(delta.mT, hs[li], out=g[w_at].reshape(lead + shape))
            if li > 0:
                delta = delta @ v[w_at].reshape(lead + shape)
                delta *= _ACTS[self._dense[li - 1][3]][1](hs[li])
        return g

    def logits(self, w: LayeredParams, x: np.ndarray) -> np.ndarray:
        P.check_same_shape(self._template, w)
        return self._forward(w.vector, np.atleast_2d(np.asarray(x, dtype=np.float64)))[-1]

    def predict(self, w: LayeredParams, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(w, x))

    def loss(self, w: LayeredParams, batch=None) -> float:
        P.check_same_shape(self._template, w)
        return self._loss(w.vector, self._batch(batch))

    def grad(self, w: LayeredParams, batch=None) -> LayeredParams:
        """Mean cross-entropy gradient by backprop (same shape as w)."""
        P.check_same_shape(self._template, w)
        return P._wrap(self._grad(w.vector, self._batch(batch)), w.layout)   # fresh, checked


@dataclass(frozen=True)
class BlobDataset:
    """Synthetic class-blob data on the unit hypercube: classifier configs' datasets."""

    centers: np.ndarray
    spread: float = 0.15

    @classmethod
    def make(cls, n_c: int, dim: int, rng: np.random.Generator,
             spread: float = 0.15) -> "BlobDataset":
        if not 0.0 <= spread < np.inf:
            raise ValueError("spread must be finite and >= 0")
        return cls(centers=rng.uniform(0.2, 0.8, size=(n_c, dim)), spread=spread)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        n_c, dim = self.centers.shape
        y = rng.integers(0, n_c, size=n)
        x = self.centers[y] + self.spread * rng.standard_normal((n, dim))
        return np.clip(x, 0.0, 1.0), y

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
variance bound holds with equality and the norm bound holds surely.

Kernel rule: the per-call kernels use np.add.reduce, np.maximum.reduce and
np.array, not np.sum, np.max, np.mean or np.stack, whose Python-level dispatch
outweighs the arithmetic on these shapes; the bits are the same, and
tests/test_kernel_rule.py keeps the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import params as P
from .params import LayeredParams


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
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != c.size:
            raise ValueError("matrix must be d x d matching the center length")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
            raise ValueError("matrix must be symmetric within 1e-12")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] <= 0.0:
            raise ValueError(f"matrix must be positive definite (min eigenvalue {eigs[0]:g})")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if self.radius <= 0.0:
            raise ValueError("radius must be > 0")
        layout = ((1, c.size),) if self.layout is None else self.layout
        layout = tuple((int(nf), int(w)) for nf, w in layout)
        if sum(nf * w for nf, w in layout) != c.size:
            raise ValueError(f"layout {layout} does not cover dimension {c.size}")
        a = a.copy(); a.flags.writeable = False
        c = c.copy(); c.flags.writeable = False
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_template", P.from_arrays([np.zeros(s) for s in layout]))
        object.__setattr__(self, "_stack", QuadraticStack([self]))

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def smoothness(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[-1])

    @property
    def strong_convexity(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def template(self) -> LayeredParams:
        """A zero LayeredParams with this objective's layer layout."""
        return self._template

    def params_from_vector(self, v: np.ndarray) -> LayeredParams:
        return P.from_vector(v, self._template)

    def loss(self, w: LayeredParams, batch=None) -> float:
        return float(self._stack.loss(P.as_vector(w))[0])

    def grad(self, w: LayeredParams, batch=None) -> LayeredParams:
        dv = P.as_vector(w) - self.center
        return self.params_from_vector(self.matrix @ dv)

    def stochastic_grad(self, w: LayeredParams, rng: np.random.Generator) -> LayeredParams:
        """Exact gradient plus uniform sphere noise of radius sigma.

        Requires w inside the projection ball; callers project first.
        """
        return self.params_from_vector(self._stack.stochastic_grad(P.as_vector(w)[None], [rng])[0])

    def project(self, w: LayeredParams) -> LayeredParams:
        """Euclidean projection onto the ball of radius R around the center."""
        return self.params_from_vector(self._stack.project(P.as_vector(w)[None])[0])


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of V as a stacked matmul self-dot: the
    bits of np.linalg.norm per row (einsum and norm(axis=1) sum differently)."""
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])


def _project_rows(X: np.ndarray, center: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Row k of X, or center[k] + (x - center[k]) * R/r when it lies r > R =
    radius[k] from center[k]; only those rows are divided."""
    D = X - center
    r = _row_norms(D)
    out = r > radius
    if not out.any():
        return X
    X = X.copy()
    X[out] = center[out] + D[out] * (radius[out] / r[out])[:, None]
    return X


class QuadraticStack:
    """K quadratic objectives stacked along a leading axis: row k of every
    (K, d) array belongs to objective k.

    A QuadraticObjective runs its loss, projection and stochastic gradient
    through a one-row stack.  The stacked forms (np.matmul for A @ x and
    x @ A, np.vecdot, _row_norms) give each row the bits it gets alone.
    """

    def __init__(self, objs: Sequence[QuadraticObjective]):
        self.matrix = np.array([o.matrix for o in objs])
        self.center = np.array([o.center for o in objs])
        self.radius = np.array([o.radius for o in objs])
        self.sigma = np.array([o.noise_sigma for o in objs])
        self.noisy = np.flatnonzero(self.sigma > 0.0)   # an index array: fast row picks

    def loss(self, X: np.ndarray) -> np.ndarray:
        """Objective k's loss at row k of X (or at X itself, when 1-D)."""
        D = X - self.center
        return 0.5 * np.vecdot(np.matmul(D[:, None, :], self.matrix)[:, 0], D)

    def project(self, X: np.ndarray) -> np.ndarray:
        return _project_rows(X, self.center, self.radius)

    def stochastic_grad(self, X: np.ndarray,
                        rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Row k: objective k's gradient plus sphere noise drawn from rngs[k]."""
        D = X - self.center
        r = _row_norms(D)
        outside = r > self.radius * (1.0 + 1e-12)
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(f"w outside projection ball: distance {r[k]:g} > "
                             f"radius {self.radius[k]:g}")
        G = np.matmul(self.matrix, D[:, :, None])[:, :, 0]
        if self.noisy.size:
            xi = np.array([rngs[k].standard_normal(X.shape[1]) for k in self.noisy])
            n = _row_norms(xi)
            for i in np.flatnonzero(n == 0.0):   # probability-zero guard
                while n[i] == 0.0:
                    xi[i] = rngs[self.noisy[i]].standard_normal(X.shape[1])
                    n[i] = np.linalg.norm(xi[i])
            G[self.noisy] = G[self.noisy] + (self.sigma[self.noisy] / n)[:, None] * xi
        return G

    def sgd_step(self, X: np.ndarray, eta: float,
                 rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One projected stochastic gradient step per row (sgd_step with the ball)
        at an eta > 0 the caller has checked."""
        return self.project(X + (-eta) * self.stochastic_grad(X, rngs))


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
    return P.from_vector(_project_rows(out.vector[None], center, np.array([ball[1]]))[0], out)


# ---------------------------------------------------------------------------
# tiny softmax classifier

# hidden-layer activation tag -> (a(z) into out, fresh if out is None; da/dz at z given a = a(z))
_ACTS = {
    "sigmoid": (lambda z, out=None: np.divide(1.0, np.add(np.exp(np.negative(z, out=out), out=out),
                                                          1.0, out=out), out=out),
                lambda z, a: a * (1.0 - a)),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out),
             lambda z, a: (z > 0.0).astype(np.float64)),
    "lrelu": (lambda z, out=None: np.multiply(z, np.where(z > 0.0, 1.0, 0.01), out=out),
              lambda z, a: np.where(z > 0.0, 1.0, 0.01)),
}
ACTIVATIONS = tuple(_ACTS)


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


@dataclass(frozen=True)
class ClassifierObjective:
    """Fully connected softmax classifier over a fixed labeled dataset.

    architecture: (in_dim, out_dim, activation) per hidden layer; the final
    entry must use activation "linear" and have out_dim == n_c.  Parameters
    live in a LayeredParams with one weight layer (out x in filters-as-rows)
    and one bias layer per dense layer.  logits, predict, loss and grad check
    that layout once and run the flat-vector kernels the round engine calls.
    """

    architecture: tuple[tuple[int, int, str], ...]
    data_x: np.ndarray = None     # (n, in_dim)
    data_y: np.ndarray = None     # (n,) int labels
    n_c: int = field(default=None)

    def __post_init__(self):
        arch = tuple((int(i), int(o), str(a)) for i, o, a in self.architecture)
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
        n_c = self.n_c if self.n_c is not None else arch[-1][1]
        if n_c != arch[-1][1]:
            raise ValueError("n_c must equal the final layer width")
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
        object.__setattr__(self, "n_c", int(n_c))
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

    zero_params = template

    def init_params(self, rng: np.random.Generator, scale: float = 0.1) -> LayeredParams:
        """Scaled standard-normal weights (drawn layer by layer), zero biases."""
        v = self._template.vector.copy()
        for w_at, shape, _, _ in self._dense:
            v[w_at] = (scale * rng.standard_normal(shape)).ravel()
        return P.from_vector(v, self._template)

    def _forward(self, v: np.ndarray, x: np.ndarray):
        """W per dense layer, a view of the flat vector v, and on the checked
        float64 batch x each layer's input (then logits) and pre-activation.

        v may also hold K rows (K, d) with x a (K, b, in) batch per row: np.matmul
        runs over the leading axis and gives each row the bits it gets alone."""
        Ws, hs, zs, lead = [], [x], [], v.shape[:-1]
        for w_at, shape, b_at, a in self._dense:
            Ws.append(v[w_at].reshape(lead + shape))
            zs.append(hs[-1] @ Ws[-1].mT + v[b_at])
            hs.append(zs[-1] if a == "linear" else _ACTS[a][0](zs[-1]))
        return Ws, hs, zs

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
        """Mean cross-entropy at the flat vector v: a float.  On K rows (K, d), or
        v broadcast, with a (K, n, in) batch, one loss per row with the bits that
        row gets alone.  Each layer's matmul output takes bias and activation in place."""
        h, y = self._batch(batch)
        for w_at, shape, b_at, a in self._dense:
            h = np.matmul(h, v[w_at].reshape(v.shape[:-1] + shape).mT)
            h += v[b_at]
            if a != "linear":
                _ACTS[a][0](h, h)
        h -= np.maximum.reduce(h, axis=-1, keepdims=True)
        logp = h.reshape(-1)[np.arange(0, h.size, self.n_c) + y].reshape(h.shape[:-1])
        logp -= np.log(np.add.reduce(np.exp(h), axis=-1))
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
        """Mean cross-entropy gradient at the flat vector v by backprop; on K
        rows (K, d) with a (K, b, in) batch, row k's gradient on batch k."""
        x, y = self._batch(batch)
        lead = v.shape[:-1]
        Ws, hs, zs = self._forward(v, x)
        delta = softmax(zs[-1])         # fresh: the probabilities, then dL/dz
        delta.reshape(-1)[np.arange(0, delta.size, self.n_c) + y] -= 1.0
        delta /= x.shape[-2]            # logit gradient of the mean loss
        g = np.empty(v.shape)           # written through views: each reshape splits a last axis
        for li in range(len(Ws) - 1, -1, -1):
            w_at, shape, b_at, _ = self._dense[li]
            np.add.reduce(delta, axis=-2, keepdims=True, out=g[b_at])
            np.matmul(delta.mT, hs[li], out=g[w_at].reshape(lead + shape))
            if li > 0:
                delta = delta @ Ws[li]
                delta = delta * _ACTS[self.architecture[li - 1][2]][1](zs[li - 1], hs[li])
        return g

    def logits(self, w: LayeredParams, x: np.ndarray) -> np.ndarray:
        P.check_same_shape(self._template, w)
        return self._forward(w.vector, np.atleast_2d(np.asarray(x, dtype=np.float64)))[1][-1]

    def predict(self, w: LayeredParams, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(w, x))

    def loss(self, w: LayeredParams, batch=None) -> float:
        P.check_same_shape(self._template, w)
        return self._loss(w.vector, batch)

    def grad(self, w: LayeredParams, batch=None) -> LayeredParams:
        """Mean cross-entropy gradient by backprop (same shape as w)."""
        P.check_same_shape(self._template, w)
        return P._wrap(self._grad(w.vector, batch), w.layout)   # fresh: checked, not copied

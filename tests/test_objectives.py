import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpu import params as P
from sbpu.objectives import (AssumptionConstants, ClassifierObjective, LrSchedule,
                             QuadraticObjective, constants_for, sgd_step, softmax)


def quad(A, c, sigma=0.0, radius=10.0):
    return QuadraticObjective(matrix=np.asarray(A, dtype=float),
                              center=np.asarray(c, dtype=float),
                              noise_sigma=sigma, radius=radius)


def vec(obj, *values):
    return obj.params_from_vector(np.array(values, dtype=float))


class TestQuadratic:
    def test_loss_at_center_is_zero(self):
        o = quad(np.eye(2), [1.0, -2.0])
        assert o.loss(vec(o, 1.0, -2.0)) == 0.0

    def test_loss_identity_matrix(self):
        o = quad(np.eye(2), [0.0, 0.0])
        assert o.loss(vec(o, 1.0, 1.0)) == 1.0

    def test_grad_stationary_at_center(self):
        o = quad(np.eye(3), [0.5, 0.5, 0.5])
        g = o.grad(vec(o, 0.5, 0.5, 0.5))
        assert P.sq_norm(g) == 0.0

    def test_grad_diagonal(self):
        o = quad(np.diag([2.0, 3.0]), [0.0, 0.0])
        g = o.grad(vec(o, 1.0, 1.0))
        np.testing.assert_array_equal(P.as_vector(g), [2.0, 3.0])

    def test_grad_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            M = rng.standard_normal((d, d))
            A = M @ M.T + d * np.eye(d)
            o = quad(A, rng.standard_normal(d))
            w = rng.standard_normal(d)
            g = P.as_vector(o.grad(o.params_from_vector(w)))
            h = 1e-5
            for j in range(d):
                e = np.zeros(d); e[j] = h
                fd = (o.loss(o.params_from_vector(w + e))
                      - o.loss(o.params_from_vector(w - e))) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-7, abs=1e-7)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            quad([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError):
            quad(np.diag([1.0, -1.0]), [0.0, 0.0])


class TestStochasticGrad:
    def test_sigma_zero_equals_grad(self):
        o = quad(np.diag([1.0, 4.0]), [0.0, 0.0], sigma=0.0)
        w = vec(o, 0.3, -0.3)
        assert o.stochastic_grad(w, np.random.default_rng(1)) == o.grad(w)

    def test_pure_noise_has_norm_sigma(self):
        o = quad(np.eye(3), [0.0, 0.0, 0.0], sigma=1.0)
        g = o.stochastic_grad(vec(o, 0.0, 0.0, 0.0), np.random.default_rng(2))
        assert math.sqrt(P.sq_norm(g)) == pytest.approx(1.0, rel=1e-12)

    def test_monte_carlo_moments(self):
        sigma = 0.7
        o = quad(np.eye(4), np.zeros(4), sigma=sigma)
        w = vec(o, 0.1, 0.2, 0.3, 0.4)
        g0 = P.as_vector(o.grad(w))
        rng = np.random.default_rng(3)
        n = 10_000
        xi = np.array([P.as_vector(o.stochastic_grad(w, rng)) - g0 for _ in range(n)])
        assert np.mean(np.sum(xi ** 2, axis=1)) == pytest.approx(sigma ** 2, rel=1e-9)
        assert np.all(np.abs(xi.mean(axis=0)) <= 3 * sigma / math.sqrt(n))

    def test_outside_ball_rejected(self):
        o = quad(np.eye(2), [0.0, 0.0], sigma=0.1, radius=1.0)
        with pytest.raises(ValueError):
            o.stochastic_grad(vec(o, 2.0, 0.0), np.random.default_rng(4))

    def test_deviation_and_norm_bounds(self):
        o = quad(np.diag([1.0, 2.0]), [0.0, 0.0], sigma=0.5, radius=2.0)
        G = 2.0 * 2.0 + 0.5
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = o.project(o.params_from_vector(rng.uniform(-3, 3, size=2)))
            g = o.stochastic_grad(w, rng)
            dev = math.sqrt(P.sq_distance(g, o.grad(w)))
            assert dev <= 0.5 * (1 + 1e-12)
            assert math.sqrt(P.sq_norm(g)) <= G * (1 + 1e-12)


class TestSgdStep:
    def test_zero_gradient(self):
        o = quad(np.eye(2), [0.0, 0.0])
        w = vec(o, 1.0, 2.0)
        assert sgd_step(w, P.zeros_like(w), 0.3) == w

    def test_scalar_step(self):
        o = quad(np.eye(2), [0.0, 0.0])
        out = sgd_step(vec(o, 0.0, 0.0), vec(o, 1.0, 0.0), 0.5)
        np.testing.assert_array_equal(P.as_vector(out), [-0.5, 0.0])

    def test_projection_onto_ball(self):
        o = quad(np.eye(2), [0.0, 0.0])
        out = sgd_step(vec(o, 0.9, 0.0), vec(o, -1.0, 0.0), 0.5,
                       ball=(np.zeros(2), 1.0))
        np.testing.assert_allclose(P.as_vector(out), [1.0, 0.0], rtol=1e-15)

    def test_eta_positive_required(self):
        o = quad(np.eye(2), [0.0, 0.0])
        w = vec(o, 1.0, 1.0)
        with pytest.raises(ValueError):
            sgd_step(w, w, 0.0)


class TestLrSchedule:
    def test_direct_values(self):
        s = LrSchedule(mu=1.0, gamma=16.0)
        assert s.lr_at(0) == 0.125
        assert s.lr_at(16) == 0.0625

    def test_doubling_window(self):
        for E in (1, 2, 5, 10):
            s = LrSchedule(mu=0.5, gamma=max(16.0, float(E)))
            for t in range(0, 100):
                t0 = max(0, t - (E - 1))
                assert s.lr_at(t0) <= 2.0 * s.lr_at(t) + 1e-15

    def test_strictly_decreasing(self):
        s = LrSchedule(mu=2.0, gamma=8.0)
        vals = [s.lr_at(t) for t in range(50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_initial_lr_quarter_smoothness(self):
        L, mu = 3.0, 1.5
        kappa = L / mu
        s = LrSchedule(mu=mu, gamma=8.0 * kappa)
        assert s.lr_at(0) == pytest.approx(1.0 / (4.0 * L), rel=1e-15)


class TestConstantsFor:
    def test_identity_suite(self):
        objs = [quad(np.eye(2), [0.0, 0.0], radius=1.0) for _ in range(3)]
        c = constants_for(objs, E=2, R=1.0)
        assert (c.L, c.mu, c.G, c.kappa) == (1.0, 1.0, 1.0, 1.0)
        assert c.gamma == 8.0

    def test_eigenvalue_extremes(self):
        objs = [quad(np.diag([1.0, 4.0]), [0.0, 0.0]),
                quad(np.diag([2.0, 3.0]), [0.0, 0.0])]
        c = constants_for(objs, E=2, R=1.0)
        assert (c.L, c.mu, c.kappa) == (4.0, 1.0, 4.0)
        assert c.gamma == 32.0

    def test_E_dominant_branch(self):
        objs = [quad(np.eye(2), [0.0, 0.0])]
        assert constants_for(objs, E=40, R=1.0).gamma == 40.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            AssumptionConstants(L=1.0, mu=2.0, sigma=(0.0,), G=1.0, kappa=0.5, gamma=8.0)


class TestClassifier:
    def test_uniform_logits_loss(self):
        obj = ClassifierObjective(architecture=((3, 4, "linear"),))
        w = obj.zero_params()
        x = np.random.default_rng(6).uniform(size=(5, 3))
        y = np.array([0, 1, 2, 3, 0])
        assert obj.loss(w, (x, y)) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(7).standard_normal((10, 6)) * 30
        np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("act", ["sigmoid", "relu", "lrelu"])
    def test_grad_finite_differences(self, act):
        rng = np.random.default_rng(8)
        obj = ClassifierObjective(architecture=((5, 4, act), (4, 3, "linear")))
        w = obj.init_params(rng, scale=0.5)
        x = rng.uniform(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        g = P.as_vector(obj.grad(w, (x, y)))
        wv = P.as_vector(w)
        h = 1e-5
        idx = rng.choice(wv.size, size=25, replace=False)
        for j in idx:
            e = np.zeros_like(wv); e[j] = h
            fd = (obj.loss(P.from_vector(wv + e, w), (x, y))
                  - obj.loss(P.from_vector(wv - e, w), (x, y))) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_architecture_validation(self):
        with pytest.raises(ValueError):
            ClassifierObjective(architecture=((3, 4, "relu"),))   # must end linear
        with pytest.raises(ValueError):
            ClassifierObjective(architecture=((3, 4, "relu"), (5, 2, "linear")))
        with pytest.raises(ValueError):
            ClassifierObjective(architecture=((3, 4, "tanh"), (4, 2, "linear")))

    def test_empty_batch_rejected(self):
        obj = ClassifierObjective(architecture=((2, 2, "linear"),))
        with pytest.raises(ValueError):
            obj.loss(obj.zero_params(), (np.zeros((0, 2)), np.zeros(0, dtype=int)))

    def test_empty_embedded_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClassifierObjective(architecture=((2, 2, "linear"),),
                                data_x=np.zeros((0, 2)), data_y=np.zeros(0, dtype=int))

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            ClassifierObjective(architecture=((2, 2, "linear"),),
                                data_x=np.zeros((1, 2)), data_y=np.array([5]))
        # a given batch too: the backprop indexes its labels in the flat logits
        obj = ClassifierObjective(architecture=((2, 2, "linear"),))
        for y in ([2], [-1], [0, 1]):
            with pytest.raises(ValueError, match="one label in"):
                obj.grad(obj.zero_params(), (np.zeros((1, 2)), np.array(y)))


# ---------------------------------------------------------------------------
# bit identity of the classifier kernels against their plain-numpy forms

def _act_ref(tag, z):
    if tag == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if tag == "relu":
        return np.maximum(z, 0.0)
    return np.where(z > 0.0, z, 0.01 * z)


def _act_deriv_ref(tag, z, a):
    if tag == "sigmoid":
        return a * (1.0 - a)
    if tag == "relu":
        return (z > 0.0).astype(np.float64)
    return np.where(z > 0.0, 1.0, 0.01)


def _softmax_ref(z):
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _forward_ref(arch, v, x):
    layers, hs, zs, pos = [], [np.atleast_2d(np.asarray(x, dtype=np.float64))], [], 0
    for i, o, a in arch:
        W, b = v[pos:pos + o * i].reshape(o, i), v[pos + o * i:pos + o * i + o]
        pos += o * i + o
        layers.append((W, a))
        zs.append(hs[-1] @ W.T + b)
        hs.append(zs[-1] if a == "linear" else _act_ref(a, zs[-1]))
    return layers, hs, zs


def _loss_ref(arch, v, x, y):
    z = _forward_ref(arch, v, x)[1][-1]
    zs = z - np.max(z, axis=1, keepdims=True)
    logp = zs - np.log(np.sum(np.exp(zs), axis=1, keepdims=True))
    return float(-np.mean(logp[np.arange(x.shape[0]), y]))


def _grad_ref(arch, v, x, y):
    n = x.shape[0]
    layers, hs, zs = _forward_ref(arch, v, x)
    probs = _softmax_ref(zs[-1])
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    arrays = [None] * (2 * len(layers))
    for li in range(len(layers) - 1, -1, -1):
        arrays[2 * li] = (delta.T @ hs[li]).ravel()
        arrays[2 * li + 1] = np.sum(delta, axis=0)
        if li > 0:
            delta = delta @ layers[li][0]
            delta = delta * _act_deriv_ref(layers[li - 1][1], zs[li - 1], hs[li])
    return np.concatenate(arrays)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


# row counts on both sides of numpy's 8-wide unrolled and 128-wide pairwise blocks
ROW_COUNTS = [1, 7, 8, 9, 24, 128, 129, 256]
ARCHS = {
    "linear": ((5, 4, "linear"),),
    "sigmoid": ((5, 9, "sigmoid"), (9, 4, "linear")),
    "relu": ((5, 9, "relu"), (9, 6, "relu"), (6, 4, "linear")),
    "lrelu": ((5, 130, "lrelu"), (130, 4, "linear")),
}


class TestClassifierKernelBits:
    @pytest.mark.parametrize("name", sorted(ARCHS))
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_loss_and_grad_match_reference(self, name, n):
        arch = ARCHS[name]
        rng = np.random.default_rng([n, len(name)])
        x = rng.standard_normal((n, 5)) * 3.0
        y = rng.integers(0, 4, size=n)
        xb, yb = rng.uniform(size=(n, 5)), rng.integers(0, 4, size=n)
        obj = ClassifierObjective(architecture=arch, data_x=x, data_y=y)
        for scale in (0.1, 2.0):
            w = obj.init_params(rng, scale=scale)
            v = P.as_vector(w)
            for batch, (bx, by) in ((None, (x, y)), ((xb, yb), (xb, yb))):
                assert _bits(obj.loss(w, batch)) == _bits(_loss_ref(arch, v, bx, by))
                g = obj.grad(w, batch)
                assert g.layout == w.layout
                assert _bits(g.vector) == _bits(_grad_ref(arch, v, bx, by))

    @pytest.mark.parametrize("name", sorted(ARCHS))
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_logits_and_predict_match_reference(self, name, n):
        arch = ARCHS[name]
        rng = np.random.default_rng([n, len(name), 1])
        obj = ClassifierObjective(architecture=arch)
        w = obj.init_params(rng, scale=1.5)
        x = rng.standard_normal((n, 5)) * 3.0
        z = _forward_ref(arch, w.vector, x)[1][-1]
        assert _bits(obj.logits(w, x)) == _bits(z)
        assert _bits(obj.predict(w, x)) == _bits(_softmax_ref(z))
        # a raw 1-D sample given as a list is converted and promoted to one row
        row = x[0].tolist()
        assert _bits(obj.logits(w, row)) == _bits(_forward_ref(arch, w.vector, row)[1][-1])

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_softmax_matches_reference(self, n):
        rng = np.random.default_rng([n, 2])
        for z in (rng.standard_normal((n, 10)) * 40.0, rng.standard_normal(n) * 40.0,
                  rng.standard_normal((3, n, 4))):
            assert _bits(softmax(z)) == _bits(_softmax_ref(z))


# ---------------------------------------------------------------------------
# the finite-loss certificate that stands in for intermediate losses

def _net(data):
    """A classifier with 0-2 relu/lrelu/sigmoid hidden layers and an embedded dataset."""
    widths = data.draw(st.lists(st.integers(1, 7), min_size=2, max_size=4))
    acts = data.draw(st.lists(st.sampled_from(["relu", "lrelu", "sigmoid"]),
                              min_size=len(widths) - 2, max_size=len(widths) - 2))
    arch = tuple(zip(widths, widths[1:], acts + ["linear"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(1, 40))
    x = rng.standard_normal((n, widths[0])) * 10.0 ** data.draw(st.floats(-3.0, 12.0))
    return ClassifierObjective(architecture=arch, data_x=x,
                               data_y=rng.integers(0, widths[-1], n)), rng


class TestLossCertificate:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_certified_rows_have_finite_logits_and_loss(self, data):
        obj, rng = _net(data)
        v = rng.standard_normal(obj.template().vector.size) * 10.0 ** data.draw(st.floats(-2.0, 160.0))
        if obj._loss_certified(v, float(np.abs(obj.data_x).max())):
            with np.errstate(all="ignore"):   # a saturated sigmoid may overflow exp
                assert np.isfinite(obj._forward(v, obj.data_x)[1][-1]).all()
                assert math.isfinite(obj._loss(v))

    @pytest.mark.parametrize("act", ["relu", "lrelu", "sigmoid"])
    def test_ordinary_rows_pass_and_huge_rows_fail(self, act):
        rng = np.random.default_rng(90)
        obj = ClassifierObjective(architecture=((32, 64, act), (64, 10, "linear")),
                                  data_x=rng.uniform(size=(256, 32)),
                                  data_y=rng.integers(0, 10, 256))
        x_max = float(np.abs(obj.data_x).max())
        v = obj.init_params(rng).vector
        assert obj._loss_certified(v, x_max)
        huge = v * 1e200
        # a sigmoid's output stays within 1, so its logits stay near 1e200
        assert obj._loss_certified(huge, x_max) == (act == "sigmoid")
        assert not obj._loss_certified(v, math.inf)
        assert not obj._loss_certified(np.where(np.arange(v.size) == 5, math.nan, v), x_max)

    def test_logits_near_overflow_not_certified(self):
        # finite logits +-9e307 whose difference overflows: the loss is inf
        obj = ClassifierObjective(architecture=((1, 2, "linear"),),
                                  data_x=np.ones((1, 1)), data_y=np.array([1]))
        v = np.array([9e307, -9e307, 0.0, 0.0])
        with np.errstate(all="ignore"):
            assert np.isfinite(obj._forward(v, obj.data_x)[1][-1]).all()
            assert not math.isfinite(obj._loss(v))
        assert not obj._loss_certified(v, 1.0)
        assert obj._loss_certified(v * 1e-8, 1.0)


# ---------------------------------------------------------------------------
# the stacked kernels: K rows (K, d), each with a (b, in) batch, at once

def _certified_ref(obj, v, x_max):
    """The certificate one row at a time, returning at the first failing layer."""
    a, h, pos, limit = np.abs(v), x_max, 0, 1e300 / obj.n_samples
    for i, o, act in obj.architecture:
        W, b = a[pos:pos + o * i].reshape(o, i), a[pos + o * i:pos + o * i + o]
        B = float(np.max(np.sum(W, axis=1))) * h + float(np.max(b))
        if not B < limit:
            return False
        pos += o * i + o
        h = 1.0 if act == "sigmoid" else B
    return True


def _same_bits(a, b) -> bool:
    """Bit identity, except which NaN: IEEE 754 leaves open which NaN operand
    an operation returns, and numpy's loops for arrays of different lengths
    order the operands differently (a NaN row raises NonFiniteError anyway)."""
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and _bits(a[~nan]) == _bits(b[~nan])


class TestStackedKernels:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_match_per_row_bit_for_bit(self, data):
        # 1-3 dense layers, some wider than numpy's 128-element pairwise-sum
        # block; K 1-10; batch sizes 1-64 (1: numpy's gemv path); rows scaled
        # up to 1e200, some with a NaN or an infinity
        widths = data.draw(st.lists(st.one_of(st.integers(1, 12), st.just(130)),
                                    min_size=2, max_size=4))
        acts = data.draw(st.lists(st.sampled_from(["relu", "lrelu", "sigmoid"]),
                                  min_size=len(widths) - 2, max_size=len(widths) - 2))
        arch = tuple(zip(widths, widths[1:], acts + ["linear"]))
        K, b = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 64))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n = data.draw(st.integers(1, 40))
        obj = ClassifierObjective(architecture=arch, data_x=rng.standard_normal((n, widths[0])),
                                  data_y=rng.integers(0, widths[-1], n))
        d = obj.template().vector.size
        scales = data.draw(st.lists(st.floats(-3.0, 200.0), min_size=K, max_size=K))
        V = rng.standard_normal((K, d)) * 10.0 ** np.array(scales)[:, None]
        for k, bad in enumerate(data.draw(st.lists(st.sampled_from([None, math.nan, math.inf,
                                                                    -math.inf]),
                                                   min_size=K, max_size=K))):
            if bad is not None:
                V[k, rng.integers(d)] = bad
        x = rng.standard_normal((K, b, widths[0])) * 3.0
        y = rng.integers(0, widths[-1], (K, b))
        x_max = 10.0 ** rng.uniform(-3.0, 12.0, K)

        with np.errstate(all="ignore"):
            G = obj._grad(V, (x, y))
            assert G.shape == (K, d)
            for k in range(K):
                assert _same_bits(G[k], obj._grad(V[k], (x[k], y[k])))
                assert _same_bits(G[k], _grad_ref(arch, V[k], x[k], y[k]))
            want = [_certified_ref(obj, V[k], x_max[k]) for k in range(K)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # an overflowing row prints no RuntimeWarning
            got = obj._loss_certified(V, x_max)
        assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(act=st.sampled_from(["relu", "lrelu", "sigmoid"]), K=st.integers(1, 8),
           n=st.sampled_from([7, 256]), seed=st.integers(0, 2 ** 32 - 1))
    def test_full_data_losses_match_per_row_bit_for_bit(self, act, K, n, seed):
        # a round's full-data losses: K rows over their own (n, in) data, and
        # one row broadcast over all of it; n = 256 is wider than numpy's
        # 128-element pairwise-sum block
        rng = np.random.default_rng(seed)
        obj = ClassifierObjective(architecture=((32, 64, act), (64, 10, "linear")))
        V = (rng.standard_normal((K, obj.template().vector.size))
             * 10.0 ** rng.uniform(-2.0, 1.0, (K, 1)))
        DX, DY = rng.uniform(size=(K, n, 32)), rng.integers(0, 10, (K, n))
        rows, broadcast = obj._loss(V, (DX, DY)), obj._loss(V[0], (DX, DY))
        assert rows.shape == broadcast.shape == (K,)
        for k in range(K):
            alone = obj._loss(V[k], (DX[k], DY[k]))
            assert type(alone) is float and _bits(rows[k]) == _bits(alone)
            assert _bits(broadcast[k]) == _bits(obj._loss(V[0], (DX[k], DY[k])))

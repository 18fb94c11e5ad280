import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpu import objectives
from sbpu import params as P
from sbpu.objectives import (AssumptionConstants, ClassifierObjective, LrSchedule,
                             QuadraticObjective, QuadraticStack, _max_columns,
                             _project_rows, constants_for, sgd_step, softmax)


def quad(A, c, sigma=0.0, radius=10.0):
    return QuadraticObjective(matrix=np.asarray(A, dtype=float),
                              center=np.asarray(c, dtype=float),
                              noise_sigma=sigma, radius=radius)


def vec(obj, *values):
    return P.from_vector(np.array(values, dtype=float), obj.template())


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
        assert P.sq_distance(g, o.template()) == 0.0

    def test_grad_diagonal(self):
        o = quad(np.diag([2.0, 3.0]), [0.0, 0.0])
        g = o.grad(vec(o, 1.0, 1.0))
        np.testing.assert_array_equal(g.vector, [2.0, 3.0])

    def test_grad_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            M = rng.standard_normal((d, d))
            A = M @ M.T + d * np.eye(d)
            o = quad(A, rng.standard_normal(d))
            w = rng.standard_normal(d)
            g = o.grad(P.from_vector(w, o.template())).vector
            h = 1e-5
            for j in range(d):
                e = np.zeros(d); e[j] = h
                fd = (o.loss(P.from_vector(w + e, o.template()))
                      - o.loss(P.from_vector(w - e, o.template()))) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-7, abs=1e-7)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            quad([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError):
            quad(np.diag([1.0, -1.0]), [0.0, 0.0])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="matrix must be d x d"):
            quad(np.zeros((0, 0)), [])


@pytest.mark.parametrize("layout", [((3, 1.5),), ((2, 1), (1.0, 1)), ((np.float64(3), 1),),
                                    (("3", 1),)])
def test_non_integral_layout_rejected(layout):
    # int() would truncate 1.5 to 1 and run another model than the one asked for
    with pytest.raises(ValueError, match=f"layout layer {len(layout) - 1}"):
        QuadraticObjective(matrix=np.eye(3), center=np.zeros(3), layout=layout)


def test_numpy_int_widths_accepted():
    o = QuadraticObjective(matrix=np.eye(3), center=np.zeros(3), layout=((np.int64(3), 1),))
    assert o.layout == ((3, 1),) and type(o.layout[0][0]) is int
    c = ClassifierObjective(architecture=((np.int32(4), np.int64(3), "linear"),))
    assert c.architecture == ((4, 3, "linear"),) and type(c.architecture[0][0]) is int


class TestStochasticGrad:
    def test_sigma_zero_equals_grad(self):
        o = quad(np.diag([1.0, 4.0]), [0.0, 0.0], sigma=0.0)
        w = vec(o, 0.3, -0.3)
        assert o.stochastic_grad(w, np.random.default_rng(1)) == o.grad(w)

    def test_pure_noise_has_norm_sigma(self):
        o = quad(np.eye(3), [0.0, 0.0, 0.0], sigma=1.0)
        g = o.stochastic_grad(vec(o, 0.0, 0.0, 0.0), np.random.default_rng(2))
        assert math.sqrt(P.sq_distance(g, o.template())) == pytest.approx(1.0, rel=1e-12)

    def test_monte_carlo_moments(self):
        sigma = 0.7
        o = quad(np.eye(4), np.zeros(4), sigma=sigma)
        w = vec(o, 0.1, 0.2, 0.3, 0.4)
        g0 = o.grad(w).vector
        rng = np.random.default_rng(3)
        n = 10_000
        xi = np.array([o.stochastic_grad(w, rng).vector - g0 for _ in range(n)])
        assert np.mean(np.sum(xi ** 2, axis=1)) == pytest.approx(sigma ** 2, rel=1e-9)
        assert np.all(np.abs(xi.mean(axis=0)) <= 3 * sigma / math.sqrt(n))

    def test_outside_ball_rejected(self):
        o = quad(np.eye(2), [0.0, 0.0], sigma=0.1, radius=1.0)
        with pytest.raises(ValueError):
            o.stochastic_grad(vec(o, 2.0, 0.0), np.random.default_rng(4))

    class ZeroFirst:
        """default_rng(seed) whose first `zeros` standard_normal calls come out with
        their first row all zero."""

        def __init__(self, seed=6, zeros=2):
            self.rng, self.zeros, self.calls = np.random.default_rng(seed), zeros, []

        def standard_normal(self, out):
            self.calls.append(out.shape)
            self.rng.standard_normal(out=out)
            if self.zeros:   # the block's first row, then the redrawn row
                self.zeros -= 1
                out.reshape(-1, out.shape[-1])[0] = 0.0
            return out

    def test_all_zero_draw_redrawn_onto_the_sphere(self):
        # the first step's draw and its first redraw are all zeros: both are
        # redrawn from the same generator, after the round's block
        ZeroFirst = self.ZeroFirst
        stack = QuadraticStack([quad(np.eye(3), np.zeros(3), sigma=0.5)])
        gen, ref = ZeroFirst(), np.random.default_rng(6)
        noise = stack.noise([gen], 2)
        block = ref.standard_normal((2, 3))
        ref.standard_normal(3)   # the zeroed redraw
        redrawn = ref.standard_normal(3)
        assert gen.calls == [(2, 3), (3,), (3,)]
        np.testing.assert_array_equal(noise[0], [(0.5 / np.linalg.norm(x)) * x
                                                 for x in (redrawn, block[1])])
        assert np.linalg.norm(noise[0, 0]) == pytest.approx(0.5, rel=1e-12)

    def test_zero_draw_in_a_later_round_redrawn_from_its_generator(self):
        # two rounds x two clients, round-major: round 1's client 1 draws a zero row
        # first, redrawn from that generator after all four blocks; a round's rows are
        # what its generators give alone
        stack = QuadraticStack([quad(np.eye(3), np.zeros(3), sigma=s) for s in (0.5, 0.25)])
        gens = [self.ZeroFirst(seed, zeros=int(seed == 9)) for seed in (6, 7, 8, 9)]
        noise = stack.noise(gens, 2)
        assert noise.shape == (4, 2, 3)
        assert [g.calls for g in gens] == [[(2, 3)]] * 3 + [[(2, 3), (3,)]]
        refs = [np.random.default_rng(seed) for seed in (6, 7, 8, 9)]
        blocks = [ref.standard_normal((2, 3)) for ref in refs]
        blocks[3][0] = refs[3].standard_normal(3)
        np.testing.assert_array_equal(noise, [[(s / np.linalg.norm(x)) * x for x in block]
                                              for block, s in zip(blocks, (0.5, 0.25) * 2)])
        for q in range(2):   # each round's generators alone give its rows
            alone = [self.ZeroFirst(seed, zeros=int(seed == 9)) for seed in (6 + 2 * q, 7 + 2 * q)]
            np.testing.assert_array_equal(stack.noise(alone, 2), noise[2 * q:2 * q + 2])

    def test_deviation_and_norm_bounds(self):
        o = quad(np.diag([1.0, 2.0]), [0.0, 0.0], sigma=0.5, radius=2.0)
        G = 2.0 * 2.0 + 0.5
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = o.project(P.from_vector(rng.uniform(-3, 3, size=2), o.template()))
            g = o.stochastic_grad(w, rng)
            dev = math.sqrt(P.sq_distance(g, o.grad(w)))
            assert dev <= 0.5 * (1 + 1e-12)
            assert math.sqrt(P.sq_distance(g, o.template())) <= G * (1 + 1e-12)


@pytest.mark.parametrize("E, d", [(1, 1), (2, 1), (7, 1), (2, 16), (3, 5), (4, 129)])
def test_normal_block_equals_per_step_draws(E, d):
    # the noise of a round's E steps is one standard_normal call filling an
    # (E, d) block, with the values and the final generator state of E
    # standard_normal(d) calls, as is one standard_normal((E, d)) call
    block, steps, sized = (np.random.default_rng(E * d) for _ in range(3))
    want = [steps.standard_normal(d) for _ in range(E)]
    np.testing.assert_array_equal(block.standard_normal(out=np.empty((E, d))), want)
    np.testing.assert_array_equal(sized.standard_normal((E, d)), want)
    assert block.bit_generator.state == sized.bit_generator.state == steps.bit_generator.state


class TestProjectRows:
    def test_far_row_lands_on_the_sphere(self):
        # ||x|| overflows past about 1.3e154; the rows in range keep their bits
        X = np.array([[1e200, 1e200, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0],
                      [-1e300, 2.0, 1e300, 1e-300], [0.1, 0.0, 0.0, 0.0]])
        center, radius = np.zeros((4, 4)), np.array([2.0, 1.0, 3.0, 1.0])
        with np.errstate(over="ignore"):   # the kernel leaves the notice to its caller
            Y = _project_rows(X, center, radius)
        for y, R in zip(Y[[0, 2]], radius[[0, 2]]):
            assert math.hypot(*y) == pytest.approx(R, rel=1e-12)
        np.testing.assert_allclose(Y[0], [math.sqrt(2.0), math.sqrt(2.0), 0.0, 0.0], rtol=1e-12)
        np.testing.assert_allclose(Y[2], np.array([-1.0, 2e-300, 1.0, 0.0]) * (3.0 / math.sqrt(2.0)),
                                   rtol=1e-12)
        np.testing.assert_array_equal(Y[1], X[1] * (1.0 / np.linalg.norm(X[1])))
        np.testing.assert_array_equal(Y[3], X[3])

    def test_public_projections_land_far_points_silently(self):
        o = quad(np.eye(4), [1.0, 0.0, 0.0, 0.0], radius=2.0)
        far = vec(o, 1e200, 1e200, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (o.project(far), sgd_step(far, vec(o, 0.0, 0.0, 0.0, 0.0), 1.0,
                                               (o.center, o.radius))):
                np.testing.assert_allclose(w.vector - o.center,
                                           [math.sqrt(2.0), math.sqrt(2.0), 0.0, 0.0], rtol=1e-12)

    def test_projecting_a_point_outside_takes_its_norms_once(self, monkeypatch):
        # the move reuses the centred rows and norms the ball check took
        o = quad(np.eye(3), [1.0, 0.0, 0.0], radius=2.0)
        calls, row_norms = [], objectives._row_norms
        monkeypatch.setattr(objectives, "_row_norms", lambda V: calls.append(1) or row_norms(V))
        w = o.project(vec(o, 4.0, 4.0, 0.0))
        assert len(calls) == 1
        np.testing.assert_allclose(w.vector, [1.0 + 1.2, 1.6, 0.0], rtol=1e-15)


ROW_KINDS = ("normal", "zero", "subnormal", "overflowing", "nan", "inf", "-inf", "infs")


def _norm_rows(rng, kinds, d):
    """One row per kind: standard normals scaled by 1e-5 to 1e5, zeros, subnormals, entries
    near 1e154 (whose squares' sum may overflow), or a NaN, +inf, -inf or +-inf entry
    among normal ones."""
    V = rng.standard_normal((len(kinds), d)) * 10.0 ** rng.uniform(-5, 5, (len(kinds), 1))
    for v, kind in zip(V, kinds):
        if kind in ("zero", "subnormal", "overflowing"):
            v *= {"zero": 0.0, "subnormal": 1e-310 / np.abs(v).max(),
                  "overflowing": 1e154 / np.abs(v).max()}[kind]
        elif kind != "normal":
            v[rng.integers(0, d, 2)] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                                        "infs": (math.inf, -math.inf)}[kind]
    return V


class TestRowNorms:
    """_row_norms, np.vecdot's one dot per row, has the bits of np.linalg.norm per row and
    of the stacked np.matmul self-dot it replaced, NaN aside (_same_bits)."""

    @staticmethod
    def _check(V):
        with np.errstate(all="ignore"):
            got = objectives._row_norms(V)
            stacked = np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])
            per_row = np.array([np.linalg.norm(v) for v in V])
        assert _same_bits(got, per_row) and _same_bits(got, stacked)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cohort_rows_match_per_row_norm_and_stacked_self_dot(self, data):
        K, d = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 64))
        kinds = data.draw(st.lists(st.sampled_from(ROW_KINDS), min_size=K, max_size=K))
        self._check(_norm_rows(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                               kinds, d))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_noise_block_rows_match_per_row_norm_and_stacked_self_dot(self, data):
        # QuadraticStack.noise's (rounds * noisy rows * E, d) block of a whole round block
        rounds, rows, E = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 8)), \
            data.draw(st.integers(1, 4))
        d = data.draw(st.integers(1, 64))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        kinds = rng.choice(ROW_KINDS, rounds * rows * E, p=[0.93] + [0.01] * 7)
        self._check(_norm_rows(rng, kinds, d))


class TestSgdStep:
    def test_zero_gradient(self):
        o = quad(np.eye(2), [0.0, 0.0])
        w = vec(o, 1.0, 2.0)
        assert sgd_step(w, o.template(), 0.3) == w

    def test_scalar_step(self):
        o = quad(np.eye(2), [0.0, 0.0])
        out = sgd_step(vec(o, 0.0, 0.0), vec(o, 1.0, 0.0), 0.5)
        np.testing.assert_array_equal(out.vector, [-0.5, 0.0])

    def test_projection_onto_ball(self):
        o = quad(np.eye(2), [0.0, 0.0])
        out = sgd_step(vec(o, 0.9, 0.0), vec(o, -1.0, 0.0), 0.5,
                       ball=(np.zeros(2), 1.0))
        np.testing.assert_allclose(out.vector, [1.0, 0.0], rtol=1e-15)

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
        w = obj.template()
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
        g = obj.grad(w, (x, y)).vector
        wv = w.vector
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

    @pytest.mark.parametrize("architecture", [((4.7, 3, "linear"),),
                                              ((4, 6, "relu"), (6.0, 3, "linear")),
                                              ((4, 6, "relu"), (6, None, "linear"))])
    def test_non_integral_widths_rejected(self, architecture):
        with pytest.raises(ValueError, match=f"architecture layer {len(architecture) - 1}"):
            ClassifierObjective(architecture=architecture)

    def test_empty_batch_rejected(self):
        obj = ClassifierObjective(architecture=((2, 2, "linear"),))
        with pytest.raises(ValueError):
            obj.loss(obj.template(), (np.zeros((0, 2)), np.zeros(0, dtype=int)))

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
                obj.grad(obj.template(), (np.zeros((1, 2)), np.array(y)))


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
            v = w.vector
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


class TestClassColumns:
    """_loss's column-at-a-time class-axis max gives numpy's last-axis reduction
    bit for bit."""

    SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 5e-324])

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_match_numpy_reductions(self, lead):
        rng = np.random.default_rng(80)
        for n_c in range(1, 301):
            a = rng.standard_normal(lead + (6, n_c)) * 10.0 ** rng.integers(-8, 8, n_c)
            a[..., 0, :] = -0.0                            # a max of -0.0 stays -0.0
            a[..., 1, :] = rng.choice(self.SPECIAL, n_c)   # inf, NaN, signed zeros
            a[..., 2, rng.integers(n_c)] = np.inf
            a[..., 3, rng.integers(n_c)] = np.nan
            assert _bits(_max_columns(a)) == _bits(np.maximum.reduce(a, axis=-1)), n_c

    def test_match_on_the_loss_shapes(self):
        # clf-dp's stacked full-data logits, (K, n, n_c), and a single row's
        a = np.random.default_rng(81).standard_normal((8, 256, 10))
        for x in (a, a[0], np.exp(a)):
            assert _bits(_max_columns(x)) == _bits(np.maximum.reduce(x, axis=-1))


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
                assert np.isfinite(obj._forward(v, obj.data_x)[-1]).all()
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
            assert np.isfinite(obj._forward(v, obj.data_x)[-1]).all()
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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_stacked_losses_in_runs_match_per_client_bit_for_bit(self, data):
        # _loss on a (k, n, in) batch evaluates runs of whole clients within
        # LOSS_BLOCK_BYTES; here the budget is set to a drawn run length (one
        # client included, k not a multiple of it) or left as it is.  Rows
        # (k, d), a boolean row mask as the round engine passes, one vector
        # broadcast, and labels flattened as the public loss passes them
        widths = data.draw(st.lists(st.integers(1, 70), min_size=2, max_size=4))
        acts = data.draw(st.lists(st.sampled_from(["relu", "lrelu", "sigmoid"]),
                                  min_size=len(widths) - 2, max_size=len(widths) - 2))
        obj = ClassifierObjective(architecture=tuple(zip(widths, widths[1:], acts + ["linear"])))
        k, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 300))
        run = data.draw(st.one_of(st.none(), st.integers(1, 12)))
        budget = (objectives.LOSS_BLOCK_BYTES if run is None
                  else run * 8 * n * max(widths[1:]) + data.draw(st.integers(0, 7)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        V = (rng.standard_normal((k, obj.template().vector.size))
             * 10.0 ** rng.uniform(-2.0, 1.0, (k, 1)))
        DX, DY = rng.uniform(-3.0, 3.0, (k, n, widths[0])), rng.integers(0, widths[-1], (k, n))
        mask = rng.random(k) < 0.5
        mask[rng.integers(k)] = True
        with np.errstate(all="ignore"), mock.patch.object(objectives, "LOSS_BLOCK_BYTES", budget):
            rows, masked = obj._loss(V, (DX, DY)), obj._loss(V[mask], (DX[mask], DY[mask]))
            broadcast, flat = obj._loss(V[0], (DX, DY)), obj._loss(V[0], (DX, DY.ravel()))
        assert rows.shape == broadcast.shape == flat.shape == (k,)
        assert _bits(masked) == _bits(rows[mask]) and _bits(flat) == _bits(broadcast)
        with np.errstate(all="ignore"):
            assert _bits(rows) == _bits([obj._loss(V[i], (DX[i], DY[i])) for i in range(k)])
            assert _bits(broadcast) == _bits([obj._loss(V[0], (DX[i], DY[i]))
                                              for i in range(k)])

    @pytest.mark.parametrize("broadcast", [False, True], ids=["rows", "broadcast"])
    def test_full_data_loss_allocates_one_run(self, broadcast):
        # a (16, 512) 32-64-10 group: its (16, 512, 64) hidden activation is
        # 4 MiB in one stack, 512 KiB in a run of 2 clients
        rng = np.random.default_rng(5)
        obj = ClassifierObjective(architecture=((32, 64, "relu"), (64, 10, "linear")))
        V = rng.standard_normal((16, obj.template().vector.size)) * 0.1
        DX, DY = rng.uniform(size=(16, 512, 32)), rng.integers(0, 10, (16, 512))
        v = V[0] if broadcast else V
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            obj._loss(v, (DX, DY))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * objectives.LOSS_BLOCK_BYTES, peak


# ---------------------------------------------------------------------------
# the kernels write only into arrays they allocate

@pytest.mark.parametrize("act", ["relu", "lrelu", "sigmoid"])
@pytest.mark.parametrize("layers", [1, 2])
def test_kernels_leave_callers_arrays_untouched(act, layers):
    # a user batch reaches the kernels uncopied (_batch keeps float64 input as
    # it is); a LayeredParams vector is read-only, so v is also given as plain
    # writeable rows to the flat kernels
    widths = [5] + [7] * layers + [4]
    arch = tuple(zip(widths, widths[1:], [act] * (len(widths) - 2) + ["linear"]))
    rng = np.random.default_rng([layers, len(act)])
    obj = ClassifierObjective(architecture=arch)
    w = obj.init_params(rng, scale=2.0)
    K, b, d = 3, 6, w.vector.size
    x, y = rng.standard_normal((b, 5)) * 3.0, rng.integers(0, 4, b)
    v, V = w.vector.copy(), rng.standard_normal((K, d))
    X, Y = rng.standard_normal((K, b, 5)) * 3.0, rng.integers(0, 4, (K, b))
    arrays = (x, y, v, V, X, Y)
    assert all(a.flags.writeable for a in arrays)
    assert all(a.dtype == np.float64 for a in (x, v, V, X))
    before = [a.copy() for a in arrays]
    obj.loss(w, (x, y))
    obj.grad(w, (x, y))
    obj.logits(w, x)
    obj.predict(w, x)
    obj.logits(w, x[0])
    obj._loss(v, (x, y))
    obj._grad(v, (x, y))
    obj._loss(V, (X, Y))
    obj._grad(V, (X, Y))
    obj._loss(v, (X, Y))
    for a, want in zip(arrays, before):
        assert a.tobytes() == want.tobytes()

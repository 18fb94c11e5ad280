import itertools
import math

import numpy as np
import pytest

from sbpu import params as P
from sbpu import seeds
from sbpu.attacks import (BlobDataset, MiaTrainConfig, ShadowSetup,
                          confusion_scores, estimate_mean_predictions,
                          final_bias_gradient, ir_reconstruct, lia_experiment,
                          lia_infer_counts, mia_experiment,
                          mia_run, psnr)
from sbpu.objectives import ClassifierObjective, softmax


class TestLogitGradIdentity:
    """The identity label inference rests on: on one sample, the final-layer
    bias gradient is the cross-entropy gradient wrt the logits, softmax(z) - onehot(y)."""

    @staticmethod
    def _bias_grad(obj, w, x, label):
        return final_bias_gradient(obj.grad(w, (x, np.array([label]))))

    def test_uniform_case(self):
        obj = ClassifierObjective(architecture=((3, 4, "linear"),))
        out = self._bias_grad(obj, obj.template(), np.ones((1, 3)), 0)
        np.testing.assert_allclose(out, [-0.75, 0.25, 0.25, 0.25], rtol=1e-15)

    def test_matches_finite_difference_of_cross_entropy(self):
        rng = np.random.default_rng(0)
        obj = ClassifierObjective(architecture=((3, 5, "linear"),))
        w = obj.init_params(rng, scale=1.0)
        x = rng.uniform(size=(1, 3))
        z = obj.logits(w, x)[0]

        def ce(zv):
            zs = zv - np.max(zv)
            return float(-(zs[2] - math.log(np.sum(np.exp(zs)))))

        g = self._bias_grad(obj, w, x, 2)
        h = 1e-6
        for j in range(5):
            e = np.zeros(5); e[j] = h
            fd = (ce(z + e) - ce(z - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-6)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(1)
        obj = ClassifierObjective(architecture=((4, 6, "linear"),))
        for _ in range(50):
            w = obj.init_params(rng, scale=1.0)
            g = self._bias_grad(obj, w, rng.uniform(size=(1, 4)), int(rng.integers(0, 6)))
            assert abs(float(np.sum(g))) < 1e-12


class TestLiaCounts:
    def _exact_case(self, obj, w, x, y, bs):
        bias_grad = final_bias_gradient(obj.grad(w, (x, y)))
        mean_pred = np.mean(obj.predict(w, x), axis=0)
        return lia_infer_counts(bias_grad, mean_pred, bs)

    def test_single_sample(self):
        rng = np.random.default_rng(2)
        obj = ClassifierObjective(architecture=((3, 4, "linear"),))
        w = obj.init_params(rng)
        x = rng.uniform(size=(1, 3))
        counts = self._exact_case(obj, w, x, np.array([0]), 1)
        np.testing.assert_array_equal(counts, [1, 0, 0, 0])

    def test_exhaustive_small_batches(self):
        rng = np.random.default_rng(3)
        for n_c in (2, 3):
            obj = ClassifierObjective(architecture=((2, 5, "sigmoid"), (5, n_c, "linear")))
            w = obj.init_params(rng, scale=0.4)
            for bs in (1, 2, 3, 4):
                x = rng.uniform(size=(bs, 2))
                for labels in itertools.product(range(n_c), repeat=bs):
                    y = np.array(labels)
                    counts = self._exact_case(obj, w, x, y, bs)
                    np.testing.assert_array_equal(counts,
                                                  np.bincount(y, minlength=n_c))

    def test_probe_estimation_error_small(self):
        for seed in range(5):
            rep = lia_experiment(seed, bs=32)
            assert rep.label_count_error <= 0.1 * 32

    def test_clamped_to_batch_size(self):
        counts = lia_infer_counts(np.array([-5.0, 5.0]), np.array([0.5, 0.5]), 3)
        np.testing.assert_array_equal(counts, [3, 0])


class TestMeanPredictions:
    def test_zero_model_uniform(self):
        obj = ClassifierObjective(architecture=((4, 5, "linear"),))
        out = estimate_mean_predictions(obj, obj.template(),
                                        100, np.random.default_rng(4))
        np.testing.assert_allclose(out, np.full(5, 0.2), rtol=1e-12)

    def test_constant_model_exact(self):
        obj = ClassifierObjective(architecture=((3, 2, "linear"),))
        w = P.from_arrays([np.zeros((2, 3)), np.array([[2.0, 0.0]])],
                          ["weight", "bias"])
        out = estimate_mean_predictions(obj, w, 17, np.random.default_rng(5))
        np.testing.assert_allclose(out, softmax(np.array([2.0, 0.0])), rtol=1e-12)

    def test_variance_shrinks_with_probes(self):
        rng = np.random.default_rng(6)
        obj = ClassifierObjective(architecture=((4, 3, "linear"),))
        w = obj.init_params(rng, scale=1.0)

        def spread(n_probes, reps):
            ests = [estimate_mean_predictions(obj, w, n_probes,
                                              np.random.default_rng(100 + r))[0]
                    for r in range(reps)]
            return float(np.var(ests))

        assert spread(1000, 20) < spread(10, 20) / 10.0


class TestConfusionScores:
    def test_reference_oracle(self):
        y_true = np.array([1, 1, 1, 0, 0, 0, 1, 0])
        y_pred = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        member, nonmember, acc = confusion_scores(y_true, y_pred)
        # members: tp=3, fp=1, fn=1
        assert member.precision == pytest.approx(0.75)
        assert member.recall == pytest.approx(0.75)
        assert member.f1 == pytest.approx(0.75)
        # nonmembers: tn=3 treated as tp for the negative class
        assert nonmember.precision == pytest.approx(0.75)
        assert acc == pytest.approx(6 / 8)

    def test_degenerate_all_one_class(self):
        member, nonmember, acc = confusion_scores([1, 1], [0, 0])
        assert member.f1 == 0.0 and acc == 0.0


class TestShadowSetup:
    def _model(self):
        return ClassifierObjective(architecture=((2, 3, "linear"),))

    def test_disjointness_enforced(self):
        m = self._model()
        w = m.template()
        shared = np.array([[0.1, 0.2]])
        with pytest.raises(ValueError, match="disjoint"):
            ShadowSetup(model=m, victim_params=w, others_params=w,
                        shadow_victim_x=shared, shadow_others_x=shared.copy())

    def test_degenerate_split_rejected(self):
        m = self._model()
        w = m.template()
        with pytest.raises(ValueError, match="degenerate"):
            ShadowSetup(model=m, victim_params=w, others_params=w,
                        shadow_victim_x=np.zeros((0, 2)),
                        shadow_others_x=np.ones((1, 2)))


class TestMia:
    def test_chance_level_control(self):
        rep = mia_experiment("chance", seed=0)
        assert 0.3 <= rep.accuracy <= 0.7

    def test_shared_beats_no_sharing_on_one_seed(self):
        shared = mia_experiment("shared", seed=0)
        blind = mia_experiment("no_sharing", seed=0)
        assert shared.member.f1 > blind.member.f1

    def test_unknown_setting(self):
        with pytest.raises(ValueError):
            mia_experiment("partial", seed=0)

    def test_scores_against_reference(self):
        rng = np.random.default_rng(7)
        blobs = BlobDataset.make(3, 4, rng)
        model = ClassifierObjective(architecture=((4, 3, "linear"),))
        w = model.init_params(rng)
        sx, _ = blobs.sample(40, rng)
        setup = ShadowSetup(model=model, victim_params=w, others_params=w,
                            shadow_victim_x=sx[:20], shadow_others_x=sx[20:])
        mx, _ = blobs.sample(10, rng)
        nx, _ = blobs.sample(10, rng)
        rep = mia_run(setup, mx, nx, MiaTrainConfig(epochs=5, seed=1))
        for s in (rep.member, rep.nonmember):
            for v in (s.precision, s.recall, s.f1):
                assert 0.0 <= v <= 1.0
        assert 0.0 <= rep.accuracy <= 1.0


class TestIrReconstruct:
    def _setup(self, seed, dim=12, n_c=4):
        rng = seeds.stream(seed, "ir-test")
        obj = ClassifierObjective(architecture=((dim, n_c, "linear"),))
        w = obj.init_params(rng, scale=0.1)
        x_true = rng.uniform(size=dim)
        label = 1
        y = np.zeros(n_c); y[label] = 1.0
        target = obj.grad(w, (x_true[None, :], np.array([label])))
        return obj, w, x_true, y, target

    def test_fixed_point_at_truth(self):
        obj, w, x_true, y, target = self._setup(0)
        x, val = ir_reconstruct(target, obj, w, y, iters=1, step=0.0001,
                                x_init=x_true)
        assert val < 1e-28

    def test_closed_form_row_division_oracle(self):
        obj, w, x_true, y, target = self._setup(1)
        # dL/dW = (p - y) x^T: any row with nonzero (p - y) scalar recovers x
        p = obj.predict(w, x_true[None, :])[0]
        r = p - y
        j = int(np.argmax(np.abs(r)))
        oracle_x = target.layers[0].filters[j] / r[j]
        np.testing.assert_allclose(oracle_x, x_true, rtol=1e-10)
        x, val = ir_reconstruct(target, obj, w, y, iters=4000, step=0.5,
                                rng=seeds.stream(2, "init"))
        assert val < 1e-8
        assert np.max(np.abs(x - x_true)) < 1e-3

    def test_analytic_gradient_matches_finite_difference(self):
        obj, w, x_true, y, target = self._setup(3, dim=6, n_c=3)
        rng = np.random.default_rng(8)
        x0 = rng.uniform(size=6)

        def J(xv):
            p = softmax(w.layers[0].filters @ xv + w.layers[1].filters.ravel())
            r = p - y
            M = np.outer(r, xv) - target.layers[0].filters
            v = r - target.layers[1].filters.ravel()
            return float(np.sum(M * M) + np.sum(v * v))

        # one descent step from x0 must reduce J for small step (valid gradient)
        x1, _ = ir_reconstruct(target, obj, w, y, iters=1, step=1e-3, x_init=x0)
        assert J(x1) <= J(x0) + 1e-12

    def test_multi_layer_rejected(self):
        obj = ClassifierObjective(architecture=((4, 3, "relu"), (3, 2, "linear")))
        w = obj.template()
        with pytest.raises(ValueError):
            ir_reconstruct(P.from_vector(w.vector, w), obj, w, np.array([1.0, 0.0]),
                           x_init=np.zeros(4))


class TestPsnr:
    def test_identical_infinite(self):
        a = np.array([0.1, 0.9])
        assert psnr(a, a.copy()) == math.inf

    def test_twenty_db(self):
        a = np.zeros(4)
        b = np.full(4, 0.1)   # MSE = 0.01
        assert psnr(a, b) == pytest.approx(20.0, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a, b = rng.uniform(size=16), rng.uniform(size=16)
        assert psnr(a, b) == psnr(b, a)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(10)
        a, b = rng.uniform(size=25), rng.uniform(size=25)
        mse = float(np.mean((a - b) ** 2))
        assert psnr(a, b) == pytest.approx(10 * math.log10(1 / mse), rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            psnr(np.array([1.5]), np.array([0.5]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(4))


class TestIrKernelBits:
    """ir_reconstruct against its descent written with np.outer, np.sum and
    the plain softmax, byte for byte."""

    @staticmethod
    def reference(target, w, y, iters, step, x):
        W, b = w.layers[0].filters, w.layers[1].filters.ravel()
        Gw, Gb = target.layers[0].filters, target.layers[1].filters.ravel()

        def objective_and_grad(x):
            z = W @ x + b
            e = np.exp(z - np.max(z, axis=-1, keepdims=True))
            p = e / np.sum(e, axis=-1, keepdims=True)
            r = p - y
            M = np.outer(r, x) - Gw
            v = r - Gb
            J = float(np.sum(M * M) + np.sum(v * v))
            S = np.diag(p) - np.outer(p, p)
            dJ_dr = 2.0 * (M @ x) + 2.0 * v
            return J, 2.0 * (M.T @ r) + W.T @ (S @ dJ_dr)

        best_obj, _ = objective_and_grad(x)
        best_x = x.copy()
        for _ in range(iters):
            J, g = objective_and_grad(x)
            if J < best_obj:
                best_obj, best_x = J, x.copy()
            x = x - step * g
        J, _ = objective_and_grad(x)
        if J < best_obj:
            best_obj, best_x = J, x.copy()
        return best_x, best_obj

    @pytest.mark.parametrize("dim,n_c", [(3, 2), (12, 4), (64, 10), (130, 3)])
    def test_matches_reference(self, dim, n_c):
        rng = np.random.default_rng([dim, n_c])
        obj = ClassifierObjective(architecture=((dim, n_c, "linear"),))
        w = obj.init_params(rng, scale=1.0)
        x_true = rng.uniform(size=dim)
        y = np.zeros(n_c); y[n_c - 1] = 1.0
        target = obj.grad(w, (x_true[None, :], np.array([n_c - 1])))
        x0 = rng.uniform(size=dim)
        x, val = ir_reconstruct(target, obj, w, y, iters=200, step=0.3, x_init=x0)
        x_ref, val_ref = self.reference(target, w, y, 200, 0.3, x0)
        assert x.tobytes() == x_ref.tobytes()
        assert np.float64(val).tobytes() == np.float64(val_ref).tobytes()

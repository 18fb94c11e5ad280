import ctypes
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbpu
from sbpu import federation, objectives
from sbpu import params as P
from sbpu import seeds
from sbpu.federation import (NOISE_BLOCK_BYTES, ROUND_BLOCK, ClientState, Cohort, DefensePolicy,
                             DivergenceError, RoundRecord, RunPlan, _local_step, aggregate,
                             apply_defense, iter_rounds, local_train, measure_divergence,
                             run_federation, run_round, tune_malloc)
from sbpu.mutation import (DiversityRates, GlobalHistory, _dispatch_matrix,
                           check_neighborhood_bound, generate_diverse_models, sbpu_mutate)
from sbpu.objectives import (ClassifierObjective, LrSchedule, QuadraticObjective, QuadraticStack,
                             _project_rows, sgd_step)

from conftest import stream_lists

# The first classifier Cohort built here sets glibc's mmap and trim
# thresholds to its cap for the rest of the test process (tune_malloc); no
# result depends on them.


def single(*values):
    return P.from_arrays([np.array([list(values)])])


def quad(A, c, sigma=0.0, radius=10.0):
    return QuadraticObjective(matrix=np.asarray(A, dtype=float),
                              center=np.asarray(c, dtype=float),
                              noise_sigma=sigma, radius=radius)


class ZeroNoise:
    """Generator stand-in that injects exactly zero Gaussian noise."""

    def standard_normal(self, n):
        return np.zeros(n)


def quad_suite(K, d, seed, sigma=0.0, spread=0.5, radius=10.0):
    rng = np.random.default_rng(seed)
    objs = []
    for _ in range(K):
        M = rng.standard_normal((d, d))
        A = M @ M.T / d + np.eye(d)
        objs.append(quad(A, spread * rng.standard_normal(d), sigma=sigma,
                         radius=radius))
    return objs


class TestAggregate:
    def test_single_client(self):
        u = single(1.0, 2.0)
        assert aggregate([u], [7]) == u

    def test_identical_updates_any_sizes(self):
        u = single(0.3, -0.7)
        for sizes in ([1, 1], [1, 5], [10, 3]):
            assert aggregate([u, P.from_vector(u.vector, u)], sizes) == u

    def test_weighted_scalar_example(self):
        out = aggregate([single(-0.1), single(-0.2)], [1, 3])
        assert out.vector[0] == pytest.approx(-0.175, rel=1e-15)

    def test_identical_inputs_bit_exact(self):
        rng = np.random.default_rng(0)
        u = P.from_arrays([rng.standard_normal((3, 4))])
        out = aggregate([u, P.from_vector(u.vector, u), P.from_vector(u.vector, u)], [2, 5, 3])
        np.testing.assert_array_equal(out.layers[0].filters, u.layers[0].filters)

    def test_convex_combination_oracle(self):
        rng = np.random.default_rng(1)
        us = [P.from_arrays([rng.standard_normal((2, 3))]) for _ in range(4)]
        sizes = [1, 2, 3, 4]
        out = aggregate(us, sizes)
        expect = sum((n / 10.0) * u.vector for n, u in zip(sizes, us))
        np.testing.assert_allclose(out.vector, expect, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aggregate([single(1.0)], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])


class TestDefense:
    def test_none_identity(self):
        g = single(1.0, -2.0)
        assert apply_defense(g, DefensePolicy(), np.random.default_rng(2)) is g

    def test_gc_prune_half(self):
        g = single(1.0, 0.1, -2.0, 0.05)
        out = apply_defense(g, DefensePolicy(tag="gc", prune_fraction=0.5),
                            np.random.default_rng(3))
        np.testing.assert_array_equal(out.vector, [1.0, 0.0, -2.0, 0.0])

    def test_dp_pure_clipping(self):
        g = single(4.0, 0.0)   # norm 4
        policy = DefensePolicy(tag="dp", epsilon_per_round=1.0, clip=1.0)
        out = apply_defense(g, policy, ZeroNoise())
        np.testing.assert_allclose(out.vector, [1.0, 0.0], rtol=1e-15)

    def test_dp_noise_scale(self):
        policy = DefensePolicy(tag="dp", epsilon_per_round=2.0, clip=3.0)
        expect = 3.0 * math.sqrt(2.0 * math.log(1.25 / 1e-5)) / 2.0
        assert policy.noise_std() == pytest.approx(expect, rel=1e-15)

    def test_gc_nonzero_count(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(37)   # distinct magnitudes almost surely
        g = P.from_arrays([v.reshape(1, -1)])
        for p in (0.0, 0.1, 0.5, 0.9):
            out = apply_defense(g, DefensePolicy(tag="gc", prune_fraction=p),
                                np.random.default_rng(5))
            nonzero = int(np.count_nonzero(out.vector))
            assert nonzero == math.ceil((1.0 - p) * 37)

    def test_gc_tie_break_by_flat_index(self):
        g = single(0.5, 0.5, 0.5, 0.5)
        out = apply_defense(g, DefensePolicy(tag="gc", prune_fraction=0.5),
                            np.random.default_rng(6))
        np.testing.assert_array_equal(out.vector, [0.0, 0.0, 0.5, 0.5])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DefensePolicy(tag="dp", epsilon_per_round=0.0, clip=1.0)
        with pytest.raises(ValueError):
            DefensePolicy(tag="gc", prune_fraction=1.0)
        with pytest.raises(ValueError):
            DefensePolicy(tag="quantize")


class TestLocalTrain:
    def test_stationary_start(self):
        o = quad(np.eye(2), [1.0, 1.0])
        c = ClientState(id=0, n_k=1, objective=o, E=1)
        w = P.from_vector(np.array([1.0, 1.0]), o.template())
        out = local_train(c, w, LrSchedule(mu=1.0, gamma=8.0), 0,
                          np.random.default_rng(7))
        assert out == w

    def test_one_exact_step(self):
        o = quad(np.eye(2), [0.0, 0.0])
        c = ClientState(id=0, n_k=1, objective=o, E=1)
        w = P.from_vector(np.array([1.0, 0.0]), o.template())
        # lr_at(0) = 2/(1*4) = 0.5
        out = local_train(c, w, LrSchedule(mu=1.0, gamma=4.0), 0,
                          np.random.default_rng(8))
        np.testing.assert_allclose(out.vector, [0.5, 0.0], rtol=1e-15)

    def test_noiseless_descent(self):
        o = quad(np.eye(3), [0.2, -0.1, 0.4])
        c = ClientState(id=0, n_k=1, objective=o, E=100)
        w = P.from_vector(np.array([2.0, 2.0, 2.0]), o.template())
        out = local_train(c, w, LrSchedule(mu=1.0, gamma=8.0), 0,
                          np.random.default_rng(9))
        assert o.loss(out) < o.loss(w)

    def test_input_unmodified(self):
        o = quad(np.eye(2), [0.0, 0.0], sigma=0.1)
        c = ClientState(id=0, n_k=1, objective=o, E=3)
        w = P.from_vector(np.array([0.5, 0.5]), o.template())
        w_copy = P.from_vector(w.vector, w)
        local_train(c, w, LrSchedule(mu=1.0, gamma=8.0), 0, np.random.default_rng(10))
        assert w == w_copy

    def test_divergence_reported_with_iteration(self):
        rng = np.random.default_rng(11)
        obj = ClassifierObjective(architecture=((4, 8, "relu"), (8, 3, "linear")),
                                  data_x=rng.uniform(size=(12, 4)),
                                  data_y=rng.integers(0, 3, 12))
        c = ClientState(id=3, n_k=12, objective=obj, E=5, batch_size=4)
        w = obj.init_params(rng, scale=1.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as e:
            local_train(c, w, LrSchedule(mu=1e-300, gamma=8.0), 0,
                        np.random.default_rng(12))
        assert e.value.client_id == 3
        assert 0 <= e.value.iteration < 5


def naive_fedavg_round(h, objs, sizes, schedule, offset, seed, round_idx):
    """Plain flat-vector FedAvg reference: project, E noisy steps, weighted
    average by the anchor-plus-deviations formula."""
    total = float(sum(sizes))
    finals = []
    for k, o in enumerate(objs):
        rng = seeds.stream(seed, "train", round_idx, k)
        w = h.w_glb.vector.copy()
        dv = w - o.center
        r = float(np.linalg.norm(dv))
        if r > o.radius:
            w = o.center + dv * (o.radius / r)
        for s in range(len(range(E_STEPS))):
            eta = schedule.lr_at(offset + s)
            dv = w - o.center
            g = o.matrix @ dv
            if o.noise_sigma > 0.0:
                xi = rng.standard_normal(o.center.size)
                n = np.linalg.norm(xi)
                g = g + (o.noise_sigma / n) * xi
            w = w - eta * g
            dv = w - o.center
            r = float(np.linalg.norm(dv))
            if r > o.radius:
                w = o.center + dv * (o.radius / r)
        finals.append(w)
    acc = finals[0].copy()
    for u, nk in zip(finals[1:], sizes[1:]):
        acc += (nk / total) * (u - finals[0])
    return acc, finals


E_STEPS = 4


class TestRunRound:
    def _clients(self, objs, E=E_STEPS):
        return [ClientState(id=k, n_k=1, objective=o, E=E)
                for k, o in enumerate(objs)]

    def test_bootstrap_dispatch_is_copies(self):
        objs = quad_suite(3, 2, seed=20)
        h = GlobalHistory.bootstrap(objs[0].template())
        # with zero lagged gradients a round reduces to FedAvg from w_glb
        h2, rec = run_round(h, self._clients(objs), DiversityRates(0.9, 0.9),
                            LrSchedule(mu=1.0, gamma=8.0), DefensePolicy(), seed=21)
        assert h2.round == 1
        assert rec.round == 0

    def test_fedavg_oracle_equivalence(self):
        # every client noisy, then sigma = 0 clients among them
        for sigmas in ([0.3] * 4, [0.0, 0.1, 0.0, 0.3]):
            objs = [quad(o.matrix, o.center, sigma=sigma)
                    for o, sigma in zip(quad_suite(4, 3, seed=22), sigmas)]
            sizes = [c.n_k for c in self._clients(objs)]
            schedule = LrSchedule(mu=1.0, gamma=8.0)
            h = GlobalHistory.bootstrap(objs[0].template())
            seed = 23
            for r in range(10):
                expect, _ = naive_fedavg_round(h, objs, sizes, schedule, r * E_STEPS,
                                               seed, r)
                h, rec = run_round(h, self._clients(objs), DiversityRates(0.0, 0.0),
                                   schedule, DefensePolicy(), seed=seed)
                np.testing.assert_array_equal(h.w_glb.vector, expect)

    def test_history_rotation_exact(self):
        objs = quad_suite(2, 2, seed=24)
        h = GlobalHistory.bootstrap(objs[0].template())
        for r in range(5):
            before = h.w_glb
            h, _ = run_round(h, self._clients(objs), DiversityRates(0.1, 0.05),
                             LrSchedule(mu=1.0, gamma=8.0), DefensePolicy(), seed=25)
            if h.round >= 2:
                assert h.w_prev == before

    def test_equal_sizes_give_equal_weights(self):
        objs = [quad(np.eye(1), [float(k)]) for k in range(10)]
        clients = [ClientState(id=k, n_k=5, objective=o, E=1)
                   for k, o in enumerate(objs)]
        h = GlobalHistory.bootstrap(objs[0].template())
        schedule = LrSchedule(mu=1.0, gamma=4.0)   # eta_0 = 0.5
        h2, _ = run_round(h, clients, DiversityRates(0.0, 0.0), schedule,
                          DefensePolicy(), seed=26)
        # each client moves 0.5*(0 - c_k) = 0.5*c_k toward its center;
        # equal weights average to 0.5 * mean(c_k) = 0.5 * 4.5
        assert h2.w_glb.vector[0] == pytest.approx(0.1 * sum(
            0.5 * k for k in range(10)), rel=1e-12)

    def test_divergence_statistic_matches_oracle(self):
        objs = quad_suite(3, 2, seed=27, sigma=0.2)
        clients = self._clients(objs)
        schedule = LrSchedule(mu=1.0, gamma=8.0)
        h = GlobalHistory.bootstrap(objs[0].template())
        seed = 28
        _, finals = naive_fedavg_round(h, objs, [1, 1, 1], schedule, 0, seed, 0)
        _, rec = run_round(h, clients, DiversityRates(0.0, 0.0), schedule,
                           DefensePolicy(), seed=seed)
        mean = sum(finals) / 3.0
        expect = sum(np.sum((mean - f) ** 2) for f in finals) / 3.0
        assert rec.divergence == pytest.approx(expect, rel=1e-12)

    def test_lockstep_steps_match_local_train(self):
        # three one-scalar filters and a round-2 history with distinct lagged
        # models, so the dispatched models differ
        objs = [QuadraticObjective(matrix=o.matrix, center=o.center, noise_sigma=0.3,
                                   radius=1.0, layout=((3, 1),))
                for o in quad_suite(2, 3, seed=40)]
        sizes = [2, 3]
        clients = [ClientState(id=k, n_k=n, objective=o, E=3)
                   for k, (o, n) in enumerate(zip(objs, sizes))]
        rng = np.random.default_rng(41)
        w_glb, w_prev, w_prev2 = (P.from_vector(rng.standard_normal(3), objs[0].template())
                                  for _ in range(3))
        h = GlobalHistory(w_glb=w_glb, w_prev=w_prev, w_prev2=w_prev2, round=2)
        rates, schedule, seed = DiversityRates(0.3, 0.2), LrSchedule(mu=1.0, gamma=8.0), 42
        _, rec = run_round(h, clients, rates, schedule, DefensePolicy(), seed=seed)
        dispatched = generate_diverse_models(h, 2, rates, seed)
        assert dispatched[0] != dispatched[1]
        for s in range(3):
            finals = [local_train(ClientState(id=c.id, n_k=c.n_k, objective=c.objective,
                                              E=s + 1),
                                  w0, schedule, h.round * 3,
                                  seeds.stream(seed, "train", h.round, c.id))
                      for c, w0 in zip(clients, dispatched)]
            assert measure_divergence(finals, sizes) == rec.step_divergences[s]
        assert rec.client_losses == tuple(o.loss(w) for o, w in zip(objs, finals))
        assert rec.divergence == rec.step_divergences[-1]
        assert len(rec.step_divergences) == 3

    def test_divergence_reported_from_round(self):
        rng = np.random.default_rng(11)
        obj = ClassifierObjective(architecture=((4, 8, "relu"), (8, 3, "linear")),
                                  data_x=rng.uniform(size=(12, 4)),
                                  data_y=rng.integers(0, 3, 12))
        clients = [ClientState(id=k, n_k=12, objective=obj, E=5, batch_size=4)
                   for k in (3, 1)]
        h = GlobalHistory.bootstrap(obj.init_params(rng, scale=1.0))
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as e:
            run_round(h, clients, DiversityRates(0.0, 0.0),
                      LrSchedule(mu=1e-300, gamma=8.0), DefensePolicy(), seed=12)
        # lockstep: the first client to diverge at the earliest iteration
        assert (e.value.client_id, e.value.iteration) == (3, 0)


def reference_step(c, w, eta, s, rng):
    """One client's local iteration with the per-objective methods."""
    obj = c.objective
    if isinstance(obj, QuadraticObjective):
        w = obj.project(w) if s == 0 else w
        w = sgd_step(w, obj.stochastic_grad(w, rng), eta, ball=(obj.center, obj.radius))
    else:
        idx = rng.integers(0, obj.n_samples, size=c.batch_size)
        w = sgd_step(w, obj.grad(w, (obj.data_x[idx], obj.data_y[idx])), eta)
    return w, obj.loss(w)


def per_client_round(h, clients, rates, schedule, policy, seed, alpha, tie_gradients):
    """run_round one client at a time, from public per-model functions."""
    K, E = len(clients), clients[0].E
    sizes = [c.n_k for c in clients]
    total = float(sum(sizes))
    dispatched = generate_diverse_models(h, K, rates, seed)
    g, gp = P.add_scaled(h.w_glb, -1.0, h.w_prev), P.add_scaled(h.w_glb, -1.0, h.w_prev2)
    assert dispatched == [sbpu_mutate(h.w_glb, g, gp, rates,
                                      seeds.stream(seed, "sbpu", h.round, k))
                          for k in range(K)]
    reports = [] if alpha is None else [check_neighborhood_bound(w, h, alpha)
                                        for w in dispatched]
    rngs = [seeds.stream(seed, "train", h.round, c.id) for c in clients]
    trained, divergences = dispatched, []
    for s in range(E):
        steps = [reference_step(c, w, schedule.lr_at(h.round * E + s), s, rng)
                 for c, w, rng in zip(clients, trained, rngs)]
        trained = [w for w, _ in steps]
        mean = aggregate(trained, sizes)
        divergences.append(math.fsum((n / total) * P.sq_distance(mean, w)
                                     for n, w in zip(sizes, trained)))
    for c, w0, w in zip(clients, dispatched, trained):
        assert local_train(c, w0, schedule, h.round * E,
                           seeds.stream(seed, "train", h.round, c.id)) == w
    uploads = trained if policy.tag == "none" else [
        P.add_scaled(w0, 1.0, apply_defense(P.add_scaled(w, -1.0, w0), policy,
                                            seeds.stream(seed, "defense", h.round, c.id)))
        for c, w0, w in zip(clients, dispatched, trained)]
    new_glb = aggregate(uploads, sizes)
    record = RoundRecord(
        round=h.round,
        global_loss=math.fsum((c.n_k / total) * c.objective.loss(new_glb) for c in clients),
        client_losses=tuple(loss for _, loss in steps),
        step_divergences=tuple(divergences),
        bound_reports=tuple(reports))
    return h.rotated(new_glb, tie_gradients=tie_gradients), record


def two_layer_quadratics(sigmas, radii, seed):
    layout = ((3, 2), (1, 5))
    return [QuadraticObjective(matrix=o.matrix, center=o.center, noise_sigma=sig,
                               radius=r, layout=layout)
            for o, sig, r in zip(quad_suite(len(sigmas), 11, seed=seed, spread=0.3),
                                 sigmas, radii)]


def small_classifiers(K, seed):
    rng = np.random.default_rng(seed)
    arch = ((4, 6, "relu"), (6, 5, "sigmoid"), (5, 3, "linear"))
    return [ClassifierObjective(architecture=arch, data_x=rng.uniform(size=(20, 4)),
                                data_y=rng.integers(0, 3, 20)) for _ in range(K)]


def wide_classifiers(K, seed):
    # a 2048-scalar weight layer: wider than numpy's 128-element pairwise-sum
    # block, so a row summed in another memory order gets other bits
    rng = np.random.default_rng(seed)
    arch = ((32, 64, "relu"), (64, 10, "linear"))
    return [ClassifierObjective(architecture=arch, data_x=rng.uniform(size=(20, 32)),
                                data_y=rng.integers(0, 10, 20)) for _ in range(K)]


class TestBatchedEngine:
    """run_round on shapes the benchmark leaves out, against per_client_round."""

    @pytest.mark.parametrize("objs, policy, alpha", [
        # radius 0.4 puts client 0's dispatched model outside its ball
        (two_layer_quadratics([0.0, 0.3, 0.0], [0.4, 5.0, 5.0], 50), DefensePolicy(), 0.2),
        (two_layer_quadratics([0.2, 0.3, 0.1], [0.4, 5.0, 0.6], 51), DefensePolicy(), None),
        (two_layer_quadratics([0.0, 0.0, 0.0], [5.0, 0.4, 5.0], 52), DefensePolicy(), 0.3),
        (small_classifiers(3, 53), DefensePolicy(tag="dp", epsilon_per_round=20.0), 0.2),
        (small_classifiers(3, 54), DefensePolicy(tag="gc", prune_fraction=0.3), None),
        (wide_classifiers(3, 58), DefensePolicy(tag="dp", epsilon_per_round=20.0), 0.2),
    ], ids=["quad-mixed-noise-alpha", "quad-all-noisy", "quad-noiseless-alpha",
            "classifier-dp", "classifier-gc", "wide-classifier-dp-alpha"])
    def test_matches_per_client_oracle(self, objs, policy, alpha):
        sizes = [2, 7, 4]
        clients = [ClientState(id=k, n_k=n, objective=o, E=3, batch_size=3)
                   for k, (o, n) in enumerate(zip(objs, sizes))]
        rng = np.random.default_rng(55)
        w_glb, w_prev, w_prev2 = (P.from_vector(rng.standard_normal(objs[0].template().vector.size),
                                                objs[0].template()) for _ in range(3))
        h = ref = GlobalHistory(w_glb=w_glb, w_prev=w_prev, w_prev2=w_prev2, round=2)
        rates, schedule, seed = DiversityRates(0.3, 0.2), LrSchedule(mu=1.0, gamma=20.0), 56
        for _ in range(3):
            h, rec = run_round(h, clients, rates, schedule, policy, seed, alpha=alpha)
            ref, want = per_client_round(ref, clients, rates, schedule, policy, seed, alpha,
                                         tie_gradients=False)
            assert rec == want
            assert (h.w_glb.vector.tobytes(), h.w_prev.vector.tobytes(),
                    h.w_prev2.vector.tobytes()) == (ref.w_glb.vector.tobytes(),
                                                    ref.w_prev.vector.tobytes(),
                                                    ref.w_prev2.vector.tobytes())
        assert len(rec.bound_reports) == (0 if alpha is None else 3)

    @pytest.mark.parametrize("objs", [wide_classifiers(1, 59), two_layer_quadratics([0.0] * 3, [5.0] * 3, 60)],
                             ids=["wide-classifier", "two-layer-quadratic"])
    def test_dispatch_matrix_is_c_contiguous(self, objs):
        # the envelope and divergence sums add each row in memory order
        template = objs[0].template()
        rng = np.random.default_rng(61)
        h = GlobalHistory(*(P.from_vector(rng.standard_normal(template.vector.size), template)
                            for _ in range(3)), round=2)
        sel = stream_lists(template.layout, [(62, "sbpu", 2, k) for k in range(4)])
        X = _dispatch_matrix(h, DiversityRates(0.3, 0.2), sel)
        assert X.shape == (4, template.vector.size) and X.flags.c_contiguous

    def test_center_and_outside_ball_raise_no_warning(self):
        # client 0's dispatched model sits on its center (r = 0), client 1's
        # lies outside its ball; no stacked division may warn
        objs = quad_suite(2, 3, seed=57, sigma=0.2)
        objs = [quad(objs[0].matrix, [0.5, -0.5, 1.0], sigma=0.2, radius=1.0),
                quad(objs[1].matrix, [9.0, 9.0, 9.0], sigma=0.0, radius=0.5)]
        clients = [ClientState(id=k, n_k=1, objective=o, E=2) for k, o in enumerate(objs)]
        h = GlobalHistory.bootstrap(P.from_vector(objs[0].center, objs[0].template()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h2, rec = run_round(h, clients, DiversityRates(0.1, 0.05),
                                LrSchedule(mu=1.0, gamma=8.0), DefensePolicy(), seed=58)
        ref, want = per_client_round(h, clients, DiversityRates(0.1, 0.05),
                                     LrSchedule(mu=1.0, gamma=8.0), DefensePolicy(), 58,
                                     None, False)
        assert rec == want and h2.w_glb == ref.w_glb

    @pytest.mark.parametrize("objs, policy, alpha", [
        (two_layer_quadratics([0.0, 0.3, 0.0], [0.4, 5.0, 5.0], 50), DefensePolicy(), 0.2),
        (small_classifiers(3, 53), DefensePolicy(tag="dp", epsilon_per_round=20.0), 0.2),
    ], ids=["quad-mixed-noise-alpha", "classifier-dp"])
    def test_one_layered_params_per_round(self, monkeypatch, objs, policy, alpha):
        # the rows stay flat from the mutation to the aggregate, which is
        # the round's only LayeredParams
        clients = [ClientState(id=k, n_k=n, objective=o, E=3, batch_size=3)
                   for k, (o, n) in enumerate(zip(objs, [2, 7, 4]))]
        rng, template = np.random.default_rng(55), objs[0].template()
        h = GlobalHistory(*(P.from_vector(rng.standard_normal(template.vector.size), template)
                            for _ in range(3)), round=2)
        adopt, builds = P.LayeredParams._adopt, []

        def counted(self, vector, layout):
            builds.append(layout)
            return adopt(self, vector, layout)

        monkeypatch.setattr(P.LayeredParams, "_adopt", counted)
        for _ in range(3):
            builds.clear()
            h, rec = run_round(h, clients, DiversityRates(0.3, 0.2),
                               LrSchedule(mu=1.0, gamma=20.0), policy, 56, alpha=alpha)
            assert len(builds) == 1 and len(rec.bound_reports) == 3

    @staticmethod
    def _calm_and_wild(scale):
        # client 5 sees only zero inputs, so only its biases move and its row
        # stays finite; client 9's inputs are all `scale`
        rng = np.random.default_rng(61)
        y = rng.integers(0, 3, 12)
        return [ClientState(id=cid, n_k=12, E=3, batch_size=4,
                            objective=ClassifierObjective(architecture=((4, 3, "linear"),),
                                                          data_x=np.full((12, 4), x),
                                                          data_y=y))
                for cid, x in ((5, 0.0), (9, scale))]

    def _run_huge_steps(self, clients):
        h = GlobalHistory.bootstrap(clients[0].objective.template())
        with np.errstate(all="ignore"):
            run_round(h, clients, DiversityRates(0.0, 0.0),
                      LrSchedule(mu=1e-300, gamma=8.0), DefensePolicy(), seed=12)

    def test_classifier_divergence_names_the_diverging_row(self):
        clients = self._calm_and_wild(7500.0)
        with np.errstate(all="ignore"):   # the calm client alone trains finitely
            w = local_train(clients[0], clients[0].objective.template(),
                            LrSchedule(mu=1e-300, gamma=8.0), 0, np.random.default_rng(0))
        assert np.isfinite(w.vector).all()
        with pytest.raises(DivergenceError) as e:
            self._run_huge_steps(clients)
        assert (e.value.client_id, e.value.iteration) == (9, 2)

    def test_classifier_row_overflow_raises_non_finite_error(self):
        with pytest.raises(P.NonFiniteError):
            self._run_huge_steps(self._calm_and_wild(1e12))

    def _classifier_round(self, objs):
        clients = [ClientState(id=k, n_k=n, objective=o, E=3, batch_size=3)
                   for k, (o, n) in enumerate(zip(objs, [2, 7, 4]))]
        rng, template = np.random.default_rng(63), objs[0].template()
        h = GlobalHistory(*(P.from_vector(rng.standard_normal(template.vector.size), template)
                            for _ in range(3)), round=2)
        return clients, h, (DiversityRates(0.3, 0.2), LrSchedule(mu=1.0, gamma=20.0),
                            DefensePolicy(), 64)

    def test_client_losses_are_direct_last_step_losses(self):
        clients, h, (rates, schedule, policy, seed) = self._classifier_round(
            small_classifiers(3, 65))
        _, rec = run_round(h, clients, rates, schedule, policy, seed)
        want = [c.objective._loss(local_train(c, w0, schedule, h.round * c.E,
                                              seeds.stream(seed, "train", h.round, c.id)).vector)
                for c, w0 in zip(clients, generate_diverse_models(h, 3, rates, seed))]
        assert np.array(rec.client_losses).tobytes() == np.array(want).tobytes()

    def test_intermediate_losses_certified_not_evaluated(self, monkeypatch):
        # E = 3: only the last step's and the global losses are computed, 2K
        # rows in all, each group's in one stacked call over its whole data
        clients, h, args = self._classifier_round(small_classifiers(3, 66))
        loss, rows = ClassifierObjective._loss, []

        def counted(self, v, batch=None):
            assert batch[0].shape[-2] == self.n_samples
            rows.append(batch[0].shape[0])
            return loss(self, v, batch)

        monkeypatch.setattr(ClassifierObjective, "_loss", counted)
        run_round(h, clients, *args)
        assert rows == [3, 3]

    def test_round_checks_no_batch(self, monkeypatch):
        # the engine's batches are slices of the data each objective checked when
        # it was built: only the public loss and grad check a batch (_batch)
        clients, h, args = self._classifier_round(small_classifiers(3, 66))
        batch, checked = ClassifierObjective._batch, []

        def counted(self, b):
            checked.append(b is None)
            return batch(self, b)

        monkeypatch.setattr(ClassifierObjective, "_batch", counted)
        run_round(h, clients, *args)
        assert checked == []
        clients[0].objective.loss(h.w_glb)
        assert checked == [True]

    def test_clients_certified_by_their_own_activations(self, monkeypatch):
        # one layout, two activations: rows of size 1e150 bound the relu
        # client's logits near 1e301 (evaluated) and the sigmoid's near 1e151
        rng = np.random.default_rng(67)
        clients = Cohort([ClientState(
            id=k, n_k=1, E=3, batch_size=3,
            objective=ClassifierObjective(architecture=((4, 6, act), (6, 3, "linear")),
                                          data_x=rng.uniform(size=(20, 4)),
                                          data_y=rng.integers(0, 3, 20)))
            for k, act in enumerate(("relu", "sigmoid"))])
        loss, evaluated = ClassifierObjective._loss, []

        def counted(self, v, batch=None):
            evaluated.append(self.architecture[0][2])
            return loss(self, v, batch)

        monkeypatch.setattr(ClassifierObjective, "_loss", counted)
        X = rng.standard_normal((2, clients.template.vector.size)) * 1e150
        batches = [rng.integers(0, 20, size=(1, 3, 3)) for _ in clients.groups]   # (k, E, b)
        with np.errstate(all="ignore"):   # the sigmoid saturates
            _, losses, _ = _local_step(clients, X, 1e-300, 0, batches)
            assert losses is None and evaluated == ["relu"]
            _, losses, _ = _local_step(clients, X, 1e-300, 2, batches)
        assert evaluated == ["relu"] * 2 + ["sigmoid"] and all(map(math.isfinite, losses))

    def test_classifier_round_draws_batches_with_one_integers_call(self, monkeypatch):
        # each client's "train" generator makes one integers call for the
        # round's E batches and no random_raw call, with the bits of E calls
        class Counted:
            def __init__(self, rng):
                self.rng, self.bit_generator = rng, self

            def random_raw(self, size):
                calls.append(("random_raw", size))
                return self.rng.bit_generator.random_raw(size)

            def integers(self, *args, **kwargs):
                calls.append(("integers", *args))
                return self.rng.integers(*args, **kwargs)

        calls, from_words = [], seeds.from_words
        monkeypatch.setattr(seeds, "from_words", lambda w: Counted(from_words(w)))
        rng = np.random.default_rng(72)
        clients = [ClientState(id=20 + k, n_k=1, E=3, batch_size=size,
                               objective=ClassifierObjective(
                                   architecture=((4, 6, "relu"), (6, 3, "linear")),
                                   data_x=rng.uniform(size=(20, 4)),
                                   data_y=rng.integers(0, 3, 20)))
                   for k, size in enumerate((5, 5, 7))]
        template = clients[0].objective.template()
        h = GlobalHistory(*(P.from_vector(rng.standard_normal(template.vector.size), template)
                            for _ in range(3)), round=2)
        args = (DiversityRates(0.3, 0.2), LrSchedule(mu=1.0, gamma=20.0), DefensePolicy(), 73)
        _, rec = run_round(h, clients, *args)
        assert calls == [("integers", 0, 20, (3, 5))] * 2 + [("integers", 0, 20, (3, 7))]
        monkeypatch.undo()
        assert rec == per_client_round(h, clients, *args, None, tie_gradients=False)[1]

    def test_quadratic_round_draws_noise_with_one_standard_normal_call(self, monkeypatch):
        # each noisy client's "train" generator makes one standard_normal call
        # for the round's E steps, a sigma = 0 client's none, and the rounds
        # keep the bits of per-client stochastic_grad calls (the fancy-index path)
        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                calls.append(("standard_normal", out.shape))
                return self.rng.standard_normal(out=out)

        calls, from_words = [], seeds.from_words
        monkeypatch.setattr(seeds, "from_words", lambda w: Counted(from_words(w)))
        objs = two_layer_quadratics([0.0, 0.1, 0.0, 0.3], [5.0, 0.4, 5.0, 5.0], 76)
        clients = [ClientState(id=30 + k, n_k=k + 1, objective=o, E=3)
                   for k, o in enumerate(objs)]
        rng = np.random.default_rng(77)
        h = GlobalHistory(*(P.from_vector(rng.standard_normal(11), objs[0].template())
                            for _ in range(3)), round=2)
        args = (DiversityRates(0.3, 0.2), LrSchedule(mu=1.0, gamma=20.0), DefensePolicy(), 78)
        rounds = [(h, None)]
        for _ in range(4):
            rounds.append(run_round(rounds[-1][0], Cohort(clients), *args))
            assert calls == [("standard_normal", (3, 11))] * 2
            calls.clear()
        monkeypatch.undo()
        for (h, _), (h2, rec) in zip(rounds, rounds[1:]):
            ref, want = per_client_round(h, clients, *args, None, tie_gradients=False)
            assert rec == want and h2.w_glb.vector.tobytes() == ref.w_glb.vector.tobytes()

    @staticmethod
    def _stack_losses(monkeypatch, cohort):
        """The row counts of the cohort's QuadraticStack.loss calls, as they come."""
        loss, rows = QuadraticStack.loss, []

        def counted(self, X, D=None):
            if self is cohort.quads:
                rows.append(len(X) if X.ndim == 2 else None)
            return loss(self, X, D)

        monkeypatch.setattr(QuadraticStack, "loss", counted)
        return rows

    def test_quadratic_losses_at_the_last_step_and_the_aggregate(self, monkeypatch):
        # certified: each round computes the last step's K losses and the
        # aggregate's, never an earlier step's
        objs = two_layer_quadratics([0.2, 0.3, 0.1], [0.4, 5.0, 0.6], 68)
        plan = RunPlan(clients=[ClientState(id=k, n_k=k + 1, objective=o, E=3)
                                for k, o in enumerate(objs)],
                       rates=DiversityRates(0.1, 0.05), schedule=LrSchedule(mu=1.0, gamma=8.0),
                       policy=DefensePolicy(), rounds=4, seed=69, w_init=objs[0].template())
        assert plan.clients.certified
        rows = self._stack_losses(monkeypatch, plan.clients)
        assert len(list(iter_rounds(plan))) == 4
        assert rows == [3, None] * 4

    def test_uncertified_cohort_evaluates_every_step(self, monkeypatch):
        # radius 1e160: 0.5 * L * R^2 overflows, so no loss in the ball is
        # known finite and each of the E steps computes its K losses
        objs = [quad(o.matrix, o.center, sigma=0.2, radius=r)
                for o, r in zip(quad_suite(2, 3, seed=70), (1e160, 1.0))]
        clients = Cohort([ClientState(id=k, n_k=1, objective=o, E=3) for k, o in enumerate(objs)])
        assert not clients.certified
        h = GlobalHistory.bootstrap(P.from_vector(objs[1].center, objs[1].template()))
        args = (DiversityRates(0.1, 0.05), LrSchedule(mu=1.0, gamma=8.0), DefensePolicy(), 71)
        rows = self._stack_losses(monkeypatch, clients)
        h2, rec = run_round(h, clients, *args)
        assert rows == [2, 2, 2, None]
        ref, want = per_client_round(h, clients, *args, None, False)
        assert rec == want and h2.w_glb == ref.w_glb

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mixed_cohort_matches_per_client_oracle(self, data):
        # one layout, several activations, batch sizes and dataset sizes: each
        # run of consecutive clients with one (architecture, batch_size, n)
        # steps as one stacked backprop on a slice of the rows, so an
        # interleaved cohort (A, B, A) steps as three groups
        K = data.draw(st.integers(1, 6))
        kinds = data.draw(st.lists(st.tuples(st.sampled_from(["relu", "lrelu", "sigmoid"]),
                                             st.sampled_from([1, 3, 5]),
                                             st.sampled_from([7, 20])),
                                   min_size=K, max_size=K))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        clients = [ClientState(id=10 + k, n_k=k + 1, E=3, batch_size=size,
                               objective=ClassifierObjective(
                                   architecture=((4, 6, act), (6, 3, "linear")),
                                   data_x=rng.uniform(size=(n, 4)), data_y=rng.integers(0, 3, n)))
                   for k, (act, size, n) in enumerate(kinds)]
        assert len(Cohort(clients).groups) == len(list(itertools.groupby(kinds)))
        template = clients[0].objective.template()
        h = ref = GlobalHistory(*(P.from_vector(rng.standard_normal(template.vector.size),
                                                template) for _ in range(3)), round=2)
        args = (DiversityRates(0.3, 0.2), LrSchedule(mu=1.0, gamma=20.0), DefensePolicy(), 68)
        for _ in range(2):
            h, rec = run_round(h, clients, *args)
            ref, want = per_client_round(ref, clients, *args, None, tie_gradients=False)
            assert rec == want
            assert h.w_glb.vector.tobytes() == ref.w_glb.vector.tobytes()
            # the global loss's terms: the aggregate broadcast over each group's data
            assert np.float64(rec.global_loss).tobytes() == np.float64(want.global_loss).tobytes()
            for obj, _, ks, data, x_max in Cohort(clients).groups:
                per_client = [c.objective.loss(h.w_glb) for c in clients[ks]]
                assert x_max.tolist() == [np.abs(c.objective.data_x).max() for c in clients[ks]]
                assert obj._loss(h.w_glb.vector, data).tobytes() == np.array(per_client).tobytes()

    def test_mixed_objective_kinds_rejected(self):
        q = quad(np.eye(3), [0.0, 0.0, 0.0])
        c = small_classifiers(1, 59)[0]
        clients = [ClientState(id=0, n_k=1, objective=q, E=1),
                   ClientState(id=1, n_k=1, objective=c, E=1)]
        with pytest.raises(ValueError, match="one objective kind"):
            run_round(GlobalHistory.bootstrap(q.template()), clients,
                      DiversityRates(0.0, 0.0), LrSchedule(mu=1.0, gamma=8.0),
                      DefensePolicy(), seed=60)


def naive_divergence(X, p, layout):
    """The divergence's oracle: per client, one np.add.reduce of each layer's
    squared deviations from the mean, then math.fsum, weighted by p."""
    mean, terms = federation._weighted_mean(X, p), []
    for x, pk in zip(X, p):
        v, pos, sums = mean - x, 0, []
        for nf, fl, _ in layout:
            sums.append(float(np.add.reduce(v[pos:pos + nf * fl] ** 2)))
            pos += nf * fl
        try:
            terms.append(pk * math.fsum(sums))
        except OverflowError:
            terms.append(pk * math.inf)
    return math.fsum(terms), mean


def outcome(f, *args):
    """f(*args)'s divergence and mean as bytes, or the exception type it raises."""
    try:
        d, mean = f(*args)
    except OverflowError as e:
        return type(e)
    return ("nan" if math.isnan(d) else np.float64(d).tobytes()), mean.tobytes()


class TestRoundTrims:
    """The round's trimmed kernels keep the bits of their plain forms."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_divergence_matches_naive_oracle(self, data):
        # deviations squared in place, one layer's fsum skipped: same bits,
        # through rows whose squares or totals overflow and a NaN row
        K = data.draw(st.integers(1, 8))
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 40)),
                                    min_size=1, max_size=4))
        layout = P.from_arrays([np.zeros(s) for s in shapes]).layout
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        scales = data.draw(st.lists(st.sampled_from([1e-3, 1.0, 1e3, 1e150, 1e154, 1e160]),
                                    min_size=K, max_size=K))
        X = rng.standard_normal((K, sum(nf * fl for nf, fl in shapes))) * np.array(scales)[:, None]
        if data.draw(st.booleans()):
            X[data.draw(st.integers(0, K - 1)), 0] = math.nan
        p = federation._fractions(rng.integers(1, 50, K).tolist())
        before = X.tobytes()
        with np.errstate(all="ignore"):
            got = outcome(federation._divergence, X, p, layout)
            want = outcome(naive_divergence, X, p, layout)
        assert got == want
        assert X.tobytes() == before

    def test_divergence_overflow_and_nan_rows(self):
        layout = ((2, 3, "weight"), (1, 3, "bias"))
        X = np.zeros((3, 9))
        X[1] = 1e160   # its squared deviations overflow: the divergence is inf
        with np.errstate(all="ignore"):
            assert federation._divergence(X, [0.5, 0.25, 0.25], layout)[0] == math.inf
            X[2, 4] = math.nan
            assert math.isnan(federation._divergence(X, [0.5, 0.25, 0.25], layout)[0])

    def test_certified_quadratic_non_finite_row_before_the_last_step(self):
        # no loss is computed before the last step of a certified cohort, and
        # a non-finite row still names its client and iteration
        objs = quad_suite(3, 4, seed=81, sigma=0.2)
        clients = Cohort([ClientState(id=20 + k, n_k=1, objective=o, E=3)
                          for k, o in enumerate(objs)])
        assert clients.certified
        draws = clients.quads.noise([seeds.stream(82, "train", 0, c.id) for c in clients], 3)
        draws[1, 1, 2] = math.nan   # client 21's noise at local iteration 1
        X, losses, D = _local_step(clients, np.array([o.center for o in objs]), 0.1, 0, draws)
        assert losses is None and np.isfinite(X).all()
        with pytest.raises(P.NonFiniteError,
                           match="client 21, local iteration 1: non-finite value in parameters"):
            _local_step(clients, X, 0.1, 1, draws, D)

    @pytest.mark.parametrize("K, policy", [
        (1, DefensePolicy()), (3, DefensePolicy()),
        (3, DefensePolicy("dp", epsilon_per_round=50.0, clip=1.0))])
    def test_new_aggregate_owns_its_memory(self, monkeypatch, K, policy):
        seen, dispatch, step = [], federation._dispatch_matrix, federation._local_step

        def dispatched(*args):
            seen.append(dispatch(*args))
            return seen[-1]

        def trained(*args):
            out = step(*args)
            seen.append(out[0])
            return out

        monkeypatch.setattr(federation, "_dispatch_matrix", dispatched)
        monkeypatch.setattr(federation, "_local_step", trained)
        objs = quad_suite(K, 5, seed=85, sigma=0.1)
        clients = [ClientState(id=k, n_k=k + 1, objective=o, E=2) for k, o in enumerate(objs)]
        h = GlobalHistory.bootstrap(objs[0].template())
        for _ in range(3):
            h, _ = run_round(h, clients, DiversityRates(0.1, 0.05), LrSchedule(mu=1.0, gamma=8.0),
                             policy, seed=86)
            v = h.w_glb.vector
            assert not v.flags.writeable
            assert len(seen) == 3 and not any(np.shares_memory(v, a) for a in seen)
            seen.clear()
        updates = [P.from_vector(np.full(5, k + 1.0), objs[0].template()) for k in range(K)]
        v = aggregate(updates, range(1, K + 1)).vector
        assert not v.flags.writeable
        assert not any(np.shares_memory(v, u.vector) for u in updates)


def recentred_steps(clients, X, etas, draws):
    """The reference for _local_step's quadratic steps, each centring its rows anew: per
    step s, the projection (at s = 0 also one first), the gradient at X by its own
    centring, X + (-eta) * G, then every row's finiteness check.  Each step's (rows'
    bytes, last step's losses or None); it raises as _local_step does."""
    q, E, out = clients.quads, clients[0].E, []
    for s, eta in enumerate(etas):
        if s == 0:
            X = _project_rows(X, q.center, q.radius)
        G = np.matmul(q.matrix, (X - q.center)[:, :, None])[:, :, 0]
        if draws is not None:
            G[q.noisy] += draws[:, s]
        X = _project_rows(X + (-eta) * G, q.center, q.radius)
        losses = q.loss(X) if s == E - 1 or not clients.certified else None
        if not (np.isfinite(X).all() and (losses is None or np.isfinite(losses).all())):
            k = int(np.argmin(np.isfinite(X).all(axis=1) & (losses is None or np.isfinite(losses))))
            if not np.isfinite(X[k]).all():
                raise P.NonFiniteError(f"client {clients[k].id}, local iteration {s}: "
                                       "non-finite value in parameters")
            raise DivergenceError(clients[k].id, s)
        out.append((X.tobytes(), losses.tolist() if s == E - 1 else None))
    return out


def carried_steps(clients, X, etas, draws):
    """_local_step's E steps, each on the D its step before returned."""
    out, D = [], None
    for s, eta in enumerate(etas):
        X, losses, D = _local_step(clients, X, eta, s, draws, D)
        assert D.tobytes() == (X - clients.quads.center).tobytes()
        out.append((X.tobytes(), losses))
    return out


def count_isfinite(monkeypatch, calls):
    """Give federation a numpy whose isfinite calls append ("isfinite", shape) to calls."""
    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def isfinite(a):
            calls.append(("isfinite", np.shape(a)))
            return np.isfinite(a)

    monkeypatch.setattr(federation, "np", Numpy())


def steps_outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except (P.NonFiniteError, DivergenceError) as e:
        return type(e), str(e)


class TestCentredSteps:
    """A quadratic step takes its rows' D from the projection before it, and skips the
    rows' finiteness check where that projection's norms all pass r <= R."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_carried_steps_match_recentred_steps_bit_for_bit(self, data):
        # rows inside, on and outside their balls, finite rows past 1.3e154, NaN and inf
        # rows and noise, zero-sigma rows among noisy ones, uncertified cohorts
        K, d, E = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6)), data.draw(
            st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        sigmas = data.draw(st.lists(st.sampled_from([0.0, 0.3, 2.0]), min_size=K, max_size=K))
        radii = data.draw(st.lists(st.sampled_from([0.5, 3.0, 3.0, 1e160]), min_size=K,
                                   max_size=K))
        objs = []
        for sigma, radius in zip(sigmas, radii):
            M = rng.standard_normal((d, d))
            objs.append(quad(M @ M.T / d + np.eye(d), rng.integers(-8, 8, d) / 8.0,
                             sigma=sigma, radius=radius))
        clients = Cohort([ClientState(id=30 + k, n_k=1, objective=o, E=E)
                          for k, o in enumerate(objs)])
        X = np.empty((K, d))
        for k, (o, start) in enumerate(zip(objs, data.draw(st.lists(st.sampled_from(
                ["inside", "on", "outside", "far", "nan", "inf"]), min_size=K, max_size=K)))):
            u = rng.standard_normal(d)
            X[k] = {"inside": o.center + 0.1 * u / max(np.linalg.norm(u), 1.0),
                    "on": o.center + o.radius * np.eye(d)[0], "outside": o.center + 1e3 * u,
                    "far": 1e155 * u, "nan": np.full(d, math.nan), "inf": np.full(d, -math.inf)
                    }[start]
        draws = clients.quads.noise([seeds.stream(31, "train", 0, c.id) for c in clients], E)
        if draws is not None and data.draw(st.booleans()):
            draws[data.draw(st.integers(0, len(draws) - 1)), data.draw(st.integers(0, E - 1)),
                  data.draw(st.integers(0, d - 1))] = data.draw(
                st.sampled_from([math.nan, math.inf, 1e300]))
        etas = data.draw(st.lists(st.sampled_from([0.01, 0.3, 1e300]), min_size=E, max_size=E))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            want = steps_outcome(recentred_steps, clients, X.copy(), etas, draws)
            got = steps_outcome(carried_steps, clients, X.copy(), etas, draws)
        assert got == want

    def test_steady_round_projects_no_row_and_takes_e_plus_one_norms(self, monkeypatch):
        # an AC-06-shaped cohort (K 4, d 16, E 2, radius 4, sigma 0.1) in its second round,
        # which slices its noise from the block: every row stays in its ball, so only the
        # first projection's and each step's norms run, no row is projected, and neither
        # the rows nor the last step's losses, which the certificate covers, get an
        # isfinite pass
        objs = quad_suite(4, 16, seed=87, sigma=0.1, spread=0.3, radius=4.0)
        plan = RunPlan(clients=[ClientState(id=k, n_k=1, objective=o, E=2)
                                for k, o in enumerate(objs)],
                       rates=DiversityRates(0.05, 0.0375), schedule=LrSchedule(mu=1.0, gamma=16.0),
                       policy=DefensePolicy(), rounds=3, seed=88, w_init=objs[0].template(),
                       tie_gradients=True)
        assert plan.clients.certified
        rounds, calls = iter_rounds(plan), []
        next(rounds)
        for name in ("_project_rows", "_row_norms"):
            f = getattr(objectives, name)
            monkeypatch.setattr(objectives, name,
                                lambda *a, f=f, name=name: calls.append(name) or f(*a))
        count_isfinite(monkeypatch, calls)
        next(rounds)
        assert calls == ["_row_norms"] * 3

    def test_certified_last_step_that_projects_a_row_checks_rows_and_losses(self, monkeypatch):
        # a certified cohort whose one (last) step carries row 1 out of its ball: the
        # projection moves it, so the rows and the losses get their isfinite pass
        objs = quad_suite(3, 4, seed=89, radius=1.0)
        clients = Cohort([ClientState(id=40 + k, n_k=1, objective=o, E=1)
                          for k, o in enumerate(objs)])
        assert clients.certified
        X = clients.quads.center + 0.1 * np.eye(3, 4)
        X[1] = objs[1].center + 0.9 * np.eye(4)[1]
        calls = []
        count_isfinite(monkeypatch, calls)
        got = carried_steps(clients, X.copy(), [5.0], None)
        assert calls == [("isfinite", (3, 4)), ("isfinite", (3,))]
        monkeypatch.undo()
        assert got == recentred_steps(clients, X.copy(), [5.0], None)

    def test_uncertified_inf_last_loss_raises_divergence(self):
        # radius 1e151 with L = 1e10 overflows the certificate; client 31's second
        # step doubles its distance to 2e149, still in its ball, where its loss
        # 0.5 * 1e10 * r^2 overflows: the finite rows pass, the losses do not
        objs = [quad(np.eye(2), [0.0, 0.0], radius=1e151),
                quad(1e10 * np.eye(2), [1.0, 0.0], radius=1e151)]
        clients = Cohort([ClientState(id=30 + k, n_k=1, objective=o, E=2)
                          for k, o in enumerate(objs)])
        assert not clients.certified
        X, etas = np.array([[0.5, 0.0], [1e149, 0.0]]), [1e-30, 3e-10]
        want = (DivergenceError, str(DivergenceError(31, 1)))
        with np.errstate(over="ignore"):
            assert steps_outcome(carried_steps, clients, X.copy(), etas, None) == want
            assert steps_outcome(recentred_steps, clients, X.copy(), etas, None) == want


class TestRunFederation:
    def _plan(self, objs, rounds, seed, E=2, rates=DiversityRates(0.1, 0.05),
              **kw):
        clients = tuple(ClientState(id=k, n_k=1, objective=o, E=E)
                        for k, o in enumerate(objs))
        return RunPlan(clients=clients, rates=rates,
                       schedule=LrSchedule(mu=1.0, gamma=8.0),
                       policy=DefensePolicy(), rounds=rounds, seed=seed,
                       w_init=objs[0].template(), **kw)

    def test_zero_rounds_empty(self):
        objs = quad_suite(2, 2, seed=30)
        assert run_federation(self._plan(objs, 0, 31)) == []

    def test_determinism(self):
        objs = quad_suite(3, 3, seed=32, sigma=0.2)
        plan = self._plan(objs, 8, 33)
        a = run_federation(plan)
        b = run_federation(plan)
        assert [r.global_loss for r in a] == [r.global_loss for r in b]
        assert [r.client_losses for r in a] == [r.client_losses for r in b]

    def test_noiseless_loss_reduction(self):
        # shared center so the heterogeneity floor f* is zero and the loss
        # can actually shrink by the required factor
        rng = np.random.default_rng(34)
        objs = []
        for _ in range(3):
            M = rng.standard_normal((4, 4))
            objs.append(quad(M @ M.T / 4 + np.eye(4), [1.0, -1.0, 0.5, 0.0]))
        plan = self._plan(objs, 200, 35, E=10, rates=DiversityRates(0.01, 0.005))
        recs = run_federation(plan)
        assert recs[-1].global_loss <= recs[0].global_loss / 10.0

    def test_plan_admits_its_clients_once(self):
        objs = quad_suite(3, 3, seed=40, sigma=0.2)
        plan = self._plan(objs, 2, 41)
        assert isinstance(plan.clients, Cohort)
        assert dataclasses.replace(plan, seed=42).clients is plan.clients
        assert Cohort(plan.clients) is plan.clients
        assert plan.clients == tuple(plan.clients)

    def test_cohort_and_plain_list_give_equal_records(self):
        objs = quad_suite(3, 3, seed=43, sigma=0.2)
        plan = self._plan(objs, 1, 44, alpha=0.1)
        h = GlobalHistory.bootstrap(plan.w_init)
        for _ in range(3):
            args = (plan.rates, plan.schedule, plan.policy, plan.seed, plan.alpha)
            h2, rec = run_round(h, plan.clients, *args)
            h3, rec_list = run_round(h, list(plan.clients), *args)
            assert rec == rec_list and h2.w_glb == h3.w_glb
            h = h2

    def test_plan_rejects_clients_run_round_rejects(self):
        objs = quad_suite(2, 3, seed=45)
        clients = tuple(ClientState(id=k, n_k=1, objective=o, E=k + 1)
                        for k, o in enumerate(objs))
        with pytest.raises(ValueError, match="one E"):
            RunPlan(clients=clients, rates=DiversityRates(0.1, 0.05),
                    schedule=LrSchedule(mu=1.0, gamma=8.0), policy=DefensePolicy(),
                    rounds=1, seed=1, w_init=objs[0].template())

    def test_total_iteration_accounting(self):
        objs = quad_suite(2, 2, seed=38)
        recs = run_federation(self._plan(objs, 6, 39, E=5))
        assert len(recs) == 6   # T = 6*5 SGD iterations per client
        assert [r.round for r in recs] == list(range(6))


class TestRoundStreams:
    """Cohort.streams derives a run's round streams in blocks, with the bits
    of seeds.stream(seed, tag, round, key): key is the client index for
    "sbpu" and the client id for "train" and "defense"; "sbpu" gives the
    selector rows its streams draw, and a quadratic cohort's "train" the
    sphere noise they draw."""

    TAGS = ("sbpu", "train", "defense")
    SIGMAS = (0.2, 0.0, 0.3)

    def _cohort(self, ids):
        objs = two_layer_quadratics(self.SIGMAS, [5.0] * len(ids), 70)   # 4 filters, d = 11
        return Cohort([ClientState(id=i, n_k=1, objective=o, E=2) for i, o in zip(ids, objs)])

    @pytest.mark.parametrize("first", [0, ROUND_BLOCK - 2])
    def test_block_generators_equal_single_streams(self, first):
        cohort = self._cohort([7, 3, 11]).for_rounds(ROUND_BLOCK + 2)
        bounds = np.arange(9, 1, -1)
        for r in range(first, ROUND_BLOCK + 2):   # across a block boundary
            streams = cohort.streams(71, r, self.TAGS)
            assert streams["sbpu"].shape == (3, 4)
            np.testing.assert_array_equal(streams["sbpu"], stream_lists(
                cohort.template.layout, [(71, "sbpu", r, k) for k in range(3)]))
            noise = [[(sigma / np.linalg.norm(x)) * x
                      for x in seeds.stream(71, "train", r, key).standard_normal((2, 11))]
                     for sigma, key in zip(self.SIGMAS, [7, 3, 11]) if sigma > 0.0]
            np.testing.assert_array_equal(streams["train"], noise)
            assert len(streams["defense"]) == 3
            for rng, key in zip(streams["defense"], [7, 3, 11]):
                ref = seeds.stream(71, "defense", r, key)
                assert rng.bit_generator.state == ref.bit_generator.state
                np.testing.assert_array_equal(rng.integers(0, bounds), ref.integers(0, bounds))
                np.testing.assert_array_equal(rng.standard_normal(4), ref.standard_normal(4))

    @pytest.mark.parametrize("objs", [quad_suite(3, 2, 87, sigma=0.2), small_classifiers(3, 88)],
                             ids=["quadratic", "classifier"])
    def test_rounds_and_local_train_draw_through_cohort_draws(self, monkeypatch, objs):
        draws, calls = Cohort.draws, []

        def counted(self, gens):
            calls.append(len(gens))
            return draws(self, gens)

        monkeypatch.setattr(Cohort, "draws", counted)
        clients = [ClientState(id=k, n_k=1, objective=o, E=2, batch_size=3)
                   for k, o in enumerate(objs)]
        schedule = LrSchedule(mu=1.0, gamma=8.0)
        h = GlobalHistory.bootstrap(objs[0].template())
        for _ in range(2):
            h, _ = run_round(h, clients, DiversityRates(0.1, 0.05), schedule, DefensePolicy(), 89)
        local_train(clients[0], h.w_glb, schedule, 4, np.random.default_rng(90))
        assert calls == [3, 3, 1]

    def test_no_sbpu_generator_built(self, monkeypatch):
        built = []
        from_words = seeds.from_words
        monkeypatch.setattr(seeds, "from_words", lambda w: built.append(w) or from_words(w))
        cohort = self._cohort([7, 3, 11]).for_rounds(3)
        for r in range(3):
            cohort.streams(71, r, ("sbpu", "train"))
        assert len(built) == 3 * 3   # the "train" generators only

    def test_redrawn_batch_row_matches_its_stream(self):
        # numpy rejects and redraws a draw of stream (74, "train", 31, 131) when it
        # draws 1000 indices below 641 (found with seeds.lemire); its neighbours do not
        rng = np.random.default_rng(75)
        cohort = Cohort([ClientState(id=i, n_k=1, E=2, batch_size=500,
                                     objective=ClassifierObjective(
                                         architecture=((2, 3, "linear"),),
                                         data_x=rng.uniform(size=(641, 2)),
                                         data_y=rng.integers(0, 3, 641)))
                         for i in (130, 131, 132)]).for_rounds(40)
        batches, = cohort.streams(74, 31, ("sbpu", "train"))["train"]
        assert batches.shape == (3, 2, 500)
        for row, i in zip(batches, (130, 131, 132)):
            np.testing.assert_array_equal(
                row, seeds.stream(74, "train", 31, i).integers(0, 641, (2, 500)))
        raw = seeds.stream(74, "train", 31, 131).bit_generator.random_raw(500)
        assert (seeds.lemire(raw[None], np.uint64(641), 1000)[0] != batches[1].ravel()).any()

    def test_streams_derived_only_for_reached_rounds(self, monkeypatch):
        hashed = []
        child_seeds = seeds.child_seeds

        def spy(seed, tags, rounds, keys):   # the child_seed key paths each call derives
            hashed.extend((seed, t, q, k) for q in rounds for t in tags for k in keys[t])
            return child_seeds(seed, tags, rounds, keys)

        monkeypatch.setattr(seeds, "child_seeds", spy)
        objs = quad_suite(2, 2, seed=72, sigma=0.2)
        clients = [ClientState(id=k + 5, n_k=1, objective=o, E=2) for k, o in enumerate(objs)]
        plan = RunPlan(clients=clients, rates=DiversityRates(0.1, 0.05),
                       schedule=LrSchedule(mu=1.0, gamma=8.0), policy=DefensePolicy(),
                       rounds=ROUND_BLOCK + 3, seed=73, w_init=objs[0].template())
        run_federation(plan)
        assert sorted({k[2] for k in hashed}) == list(range(ROUND_BLOCK + 3))
        assert len(hashed) == (ROUND_BLOCK + 3) * 2 * 2   # "sbpu" and "train" per client
        hashed.clear()
        run_round(GlobalHistory.bootstrap(plan.w_init), clients, plan.rates, plan.schedule,
                  plan.policy, plan.seed)
        assert sorted(hashed) == sorted([(73, "sbpu", 0, 0), (73, "sbpu", 0, 1),
                                         (73, "train", 0, 5), (73, "train", 0, 6)])

    def test_run_equals_plain_rounds_across_blocks(self):
        # dp draws all three tags; client ids differ from the indices
        objs = quad_suite(3, 3, seed=74, sigma=0.2)
        clients = [ClientState(id=9 - k, n_k=k + 1, objective=o, E=2) for k, o in enumerate(objs)]
        policy = DefensePolicy(tag="dp", epsilon_per_round=50.0, clip=1.0)
        plan = RunPlan(clients=clients, rates=DiversityRates(0.1, 0.05),
                       schedule=LrSchedule(mu=1.0, gamma=8.0), policy=policy,
                       rounds=ROUND_BLOCK + 2, seed=75, w_init=objs[0].template())
        h = GlobalHistory.bootstrap(plan.w_init)
        for ran, rec in iter_rounds(plan):
            h, want = run_round(h, clients, plan.rates, plan.schedule, policy, plan.seed)
            assert rec == want and ran.w_glb.vector.tobytes() == h.w_glb.vector.tobytes()


class TestBlockNoise:
    """A quadratic cohort draws a whole block's sphere noise when it derives the
    block (one Cohort.draws call on the block's "train" generators), and a round
    slices its noise out: the bits of QuadraticStack.noise on that round's
    seeds.stream generators, with no generator built after the block's first round."""

    @staticmethod
    def _cohort(sigmas, E, d, ids):
        return Cohort([ClientState(id=i, n_k=1, E=E, objective=quad(np.eye(d), np.zeros(d), s))
                       for i, s in zip(ids, sigmas)])

    @settings(max_examples=40, deadline=None)
    @given(sigmas=st.lists(st.sampled_from([0.0, 0.0, 0.3, 2.5]), min_size=1, max_size=6),
           E=st.integers(1, 4), d=st.integers(1, 20), rounds=st.integers(1, ROUND_BLOCK + 8),
           seed=st.integers(0, 2 ** 64 - 1), data=st.data())
    def test_block_noise_equals_per_round_noise(self, sigmas, E, d, rounds, seed, data):
        ids = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=len(sigmas),
                                 max_size=len(sigmas), unique=True))
        cohort = self._cohort(sigmas, E, d, ids).for_rounds(rounds)   # mostly ends mid-block
        for r in range(rounds):
            got = cohort.streams(seed, r, ("sbpu", "train"))["train"]
            want = cohort.quads.noise([seeds.stream(seed, "train", r, i) for i in ids], E)
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigmas, tags", [
        ((0.2, 0.0, 0.3), ("sbpu", "train")), ((0.2, 0.0, 0.3), ("sbpu", "train", "defense")),
        ((0.0, 0.0, 0.0), ("sbpu", "train")), ((0.0, 0.0, 0.0), ("sbpu", "train", "defense"))])
    def test_generators_built_only_at_the_block(self, monkeypatch, sigmas, tags):
        # n * K "train" generators at the block's first round and none after it, none
        # without a noisy row; "defense" generators stay K a round
        built = []
        from_words = seeds.from_words
        monkeypatch.setattr(seeds, "from_words", lambda w: built.append(w) or from_words(w))
        cohort, n = self._cohort(sigmas, 2, 5, [4, 9, 1]).for_rounds(5), 5
        per_round = []
        for r in range(n):
            cohort.streams(77, r, tags)
            per_round.append(len(built))
            built.clear()
        train, defense = (n * 3 if any(sigmas) else 0), 3 * ("defense" in tags)
        assert per_round == [train + defense] + [defense] * (n - 1)

    @pytest.mark.parametrize("K, E, d, block", [
        (1, 40000, 4, 1),          # one round's noise, 1.28 MB, exceeds the budget
        (1, 16384, 4, 2),          # half the budget a round
        (4, 2, 16, ROUND_BLOCK),   # the AC-06 shape: 64 KiB a block
        (3, 100, 50, 8)])          # 120 kB a round
    def test_block_length_bounds_the_noise(self, monkeypatch, K, E, d, block):
        derived = []
        child_seeds = seeds.child_seeds
        monkeypatch.setattr(seeds, "child_seeds",
                            lambda s, t, q, k: derived.append(len(q)) or child_seeds(s, t, q, k))
        cohort = self._cohort([0.5] * K, E, d, range(K))
        assert cohort.block == block
        assert block == 1 or block * K * E * d * 8 <= NOISE_BLOCK_BYTES
        run = cohort.for_rounds(3)
        for r in range(3):
            got = run.streams(78, r, ("sbpu", "train"))["train"]
            want = cohort.quads.noise([seeds.stream(78, "train", r, k) for k in range(K)], E)
            assert got.tobytes() == want.tobytes()
        assert derived == [min(block, 3 - r) for r in range(0, 3, block)]
        assert self._cohort([0.0] * K, E, d, range(K)).block == ROUND_BLOCK   # no noise to hold


class TestAdmission:
    """run_round and local_train admit clients by one rule: at least one
    client, one objective kind, one E, and every objective's layout equal to
    the history's."""

    SCHEDULE = LrSchedule(mu=1.0, gamma=8.0)

    def _round(self, h, clients):
        return run_round(h, clients, DiversityRates(0.1, 0.05), self.SCHEDULE,
                         DefensePolicy(), seed=70)

    @pytest.mark.parametrize("good, bad", [
        (quad(np.eye(6), np.zeros(6)), quad(np.eye(5), np.zeros(5))),
        (QuadraticObjective(matrix=np.eye(5), center=np.zeros(5), layout=((5, 1),)),
         quad(np.eye(5), np.zeros(5))),
    ], ids=["dimension-5-client-dimension-6-history", "same-size-other-layout"])
    def test_quadratic_layout_must_match_history(self, good, bad):
        w = good.template()
        clients = [ClientState(id=0, n_k=1, objective=good, E=2),
                   ClientState(id=1, n_k=1, objective=bad, E=2)]
        for admitted in (clients[1:], clients):   # the client alone, and second
            with pytest.raises(P.ShapeMismatchError):
                self._round(GlobalHistory.bootstrap(w), admitted)
        with pytest.raises(P.ShapeMismatchError):
            local_train(clients[1], w, self.SCHEDULE, 0, np.random.default_rng(71))

    def test_no_clients_rejected(self):
        q = quad(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="at least one client"):
            self._round(GlobalHistory.bootstrap(q.template()), [])

    @pytest.mark.parametrize("case", ["empty", "kinds", "E", "layout"])
    def test_plain_lists_get_the_admission_errors(self, case):
        q = quad(np.eye(5), np.zeros(5))
        other = {"empty": None, "kinds": small_classifiers(1, 73)[0], "E": q,
                 "layout": QuadraticObjective(matrix=np.eye(5), center=np.zeros(5),
                                              layout=((5, 1),))}[case]
        clients = [] if other is None else [
            ClientState(id=0, n_k=1, objective=q, E=2),
            ClientState(id=1, n_k=1, objective=other, E=3 if case == "E" else 2)]
        error, match = {"empty": (ValueError, "at least one client"),
                        "kinds": (ValueError, "one objective kind"),
                        "E": (ValueError, "one E"),
                        "layout": (P.ShapeMismatchError, "5 vs 1 filters")}[case]
        for admit in (Cohort, lambda cs: self._round(GlobalHistory.bootstrap(q.template()), cs)):
            with pytest.raises(error, match=match):
                admit(clients)
        if case == "layout":   # the one rule a single client can break
            with pytest.raises(error, match=match):
                local_train(clients[1], q.template(), self.SCHEDULE, 0,
                            np.random.default_rng(74))

    def test_classifier_without_dataset_rejected(self):
        rng, arch = np.random.default_rng(75), ((4, 3, "linear"),)
        good = ClassifierObjective(arch, data_x=rng.uniform(size=(6, 4)),
                                   data_y=rng.integers(0, 3, 6))
        clients = [ClientState(id=0, n_k=1, objective=good, E=2),
                   ClientState(id=7, n_k=1, objective=ClassifierObjective(arch), E=2)]
        match = "client 7: classifier without an embedded dataset"
        for admit in (Cohort, lambda cs: self._round(GlobalHistory.bootstrap(good.template()), cs)):
            with pytest.raises(ValueError, match=match):
                admit(clients)
        with pytest.raises(ValueError, match=match):
            local_train(clients[1], good.template(), self.SCHEDULE, 0, np.random.default_rng(76))

    def test_different_E_rejected(self):
        objs = quad_suite(2, 3, seed=72)
        clients = [ClientState(id=k, n_k=1, objective=o, E=k + 1) for k, o in enumerate(objs)]
        with pytest.raises(ValueError, match="one E"):
            self._round(GlobalHistory.bootstrap(objs[0].template()), clients)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except TypeError:   # no handle to the process (Windows)
        return False


# rounds 10-29 of a 30-round run of K clients with n samples each (argv):
# past warm-up, inside the first block of round streams, no checkpoint; the
# run's classifier Cohort calls tune_malloc.  With a third argument 1, one
# local_train of a 4-3 classifier, whose Cohort is far smaller, runs after
# round 10.
STEADY_ROUND_FAULTS = """
import resource, sys
import numpy as np
from sbpu.config import FederationConfig
from sbpu.federation import ClientState, iter_rounds, local_train
from sbpu.objectives import ClassifierObjective, LrSchedule
K, n, small = map(int, sys.argv[1:])
rounds = iter_rounds(FederationConfig.from_dict({
    "objective": {"kind": "classifier", "architecture": [[32, 64, "relu"], [64, 10, "linear"]],
                  "dataset": {"n": n}},
    "K": K, "E": 5, "batch_size": 32, "rounds": 30,
    "defense": {"tag": "dp", "epsilon_per_round": 50.0, "clip": 1.0},
    "alpha": 0.1, "beta1": 0.1, "beta2": 0.075, "mu": 1.0, "gamma_override": 20.0,
    "seed": 7}).build_plan())
for _ in range(10):
    next(rounds)
if small:
    rng = np.random.default_rng(0)
    obj = ClassifierObjective(((4, 3, "linear"),), data_x=rng.uniform(size=(8, 4)),
                              data_y=rng.integers(0, 3, 8))
    local_train(ClientState(id=0, n_k=8, objective=obj, E=2), obj.template(),
                LrSchedule(mu=1.0, gamma=8.0), 0, rng)
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    next(rounds)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults))
"""


class TestTuneMalloc:
    @pytest.fixture(autouse=True)
    def fresh_process(self):
        """tune_malloc acts as in a new process, and again at the next Cohort after."""
        tune_malloc.cache_clear()
        yield
        tune_malloc.cache_clear()

    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        """A fake libc whose mallopt records its calls."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(federation.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        return calls

    def test_sets_the_thresholds_once_and_the_same_each_time(self, mallopt_calls):
        # mmap threshold at glibc's cap, trim threshold twice that, whatever
        # cohorts the process builds
        cap = ctypes.sizeof(ctypes.c_long) << 22
        rng = np.random.default_rng(84)
        Cohort([ClientState(id=k, n_k=1, E=1, objective=ClassifierObjective(
            ((32, 64, "relu"), (64, 10, "linear")), data_x=rng.uniform(size=(256, 32)),
            data_y=rng.integers(0, 10, 256))) for k in range(8)])   # clf-dp: (8, 256, 64)
        Cohort([ClientState(id=k, n_k=1, objective=o, E=1)
                for k, o in enumerate(small_classifiers(2, 85))])
        tune_malloc()
        assert mallopt_calls == [(federation.M_MMAP_THRESHOLD, cap),
                                 (federation.M_TRIM_THRESHOLD, 2 * cap)]

    def test_first_classifier_cohort_tunes_and_quadratics_do_not(self, mallopt_calls):
        Cohort([ClientState(id=k, n_k=1, objective=o, E=1)
                for k, o in enumerate(quad_suite(2, 3, 80))])
        assert mallopt_calls == []
        for _ in range(2):
            Cohort([ClientState(id=k, n_k=1, objective=o, E=1)
                    for k, o in enumerate(small_classifiers(2, 81))])
        assert len(mallopt_calls) == 2

    def test_does_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(federation.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert tune_malloc() is None
        obj = small_classifiers(1, 82)[0]
        w = local_train(ClientState(id=0, n_k=1, objective=obj, E=2), obj.template(),
                        LrSchedule(mu=1.0, gamma=8.0), 0, np.random.default_rng(83))
        assert np.isfinite(w.vector).all()

    @staticmethod
    def _steady_round_faults(K, n, small=0):
        """The script's count run as python -c and as a file: the two start from
        different heap layouts, and a layout can hide the faults the gate is for (with
        tune_malloc deleted, each way has read about 400 a round where the other read 0-1)."""
        # A preloaded allocator or malloc tunables would decide the count instead.
        env = {k: v for k, v in os.environ.items()
               if k not in ("LD_PRELOAD", "GLIBC_TUNABLES") and not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = str(Path(sbpu.__file__).parents[1])
        with tempfile.TemporaryDirectory() as tmp:
            script = Path(tmp) / "steady_round_faults.py"
            script.write_text(STEADY_ROUND_FAULTS)
            return [int(subprocess.run([sys.executable, *how, str(K), str(n), str(small)],
                                       env=env, capture_output=True, text=True, timeout=300,
                                       check=True).stdout)
                    for how in (["-c", STEADY_ROUND_FAULTS], [str(script)])]

    @pytest.mark.skipif(not _has_mallopt(), reason="no mallopt (not glibc)")
    def test_steady_classifier_rounds_fault_in_no_pages(self):
        # with more than one BLAS thread, glibc's default thresholds return a
        # round's temporaries to the kernel and fault them back in: up to
        # about 395 minor faults a round at two threads
        assert max(self._steady_round_faults(8, 256)) < 10

    @pytest.mark.skipif(not _has_mallopt(), reason="no mallopt (not glibc)")
    def test_steady_rounds_of_a_larger_cohort_fault_in_no_pages(self):
        # (16, 512, 64) stacked activations, 4 MiB: thresholds fixed at
        # 1 MiB / 2 MiB would map and unmap them at every full-data loss
        assert max(self._steady_round_faults(16, 512)) < 10

    @pytest.mark.skipif(not _has_mallopt(), reason="no mallopt (not glibc)")
    def test_a_smaller_cohort_later_keeps_the_larger_thresholds(self):
        # a 4-3 classifier's local_train builds a Cohort that would set
        # 1 MiB / 2 MiB again: about 400 minor faults a round after it
        assert max(self._steady_round_faults(16, 512, small=1)) < 10

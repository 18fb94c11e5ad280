import math

import numpy as np
import pytest

from sbpu import params as P
from sbpu import seeds
from sbpu.federation import (ClientState, DefensePolicy, DivergenceError, RunPlan,
                             aggregate, apply_defense, local_train, measure_divergence,
                             run_federation, run_round)
from sbpu.mutation import DiversityRates, GlobalHistory, generate_diverse_models
from sbpu.objectives import ClassifierObjective, LrSchedule, QuadraticObjective


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
            assert aggregate([u, P.clone_params(u)], sizes) == u

    def test_weighted_scalar_example(self):
        out = aggregate([single(-0.1), single(-0.2)], [1, 3])
        assert P.as_vector(out)[0] == pytest.approx(-0.175, rel=1e-15)

    def test_identical_inputs_bit_exact(self):
        rng = np.random.default_rng(0)
        u = P.from_arrays([rng.standard_normal((3, 4))])
        out = aggregate([u, P.clone_params(u), P.clone_params(u)], [2, 5, 3])
        np.testing.assert_array_equal(out.layers[0].filters, u.layers[0].filters)

    def test_convex_combination_oracle(self):
        rng = np.random.default_rng(1)
        us = [P.from_arrays([rng.standard_normal((2, 3))]) for _ in range(4)]
        sizes = [1, 2, 3, 4]
        out = aggregate(us, sizes)
        expect = sum((n / 10.0) * P.as_vector(u) for n, u in zip(sizes, us))
        np.testing.assert_allclose(P.as_vector(out), expect, rtol=1e-12)

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
        np.testing.assert_array_equal(P.as_vector(out), [1.0, 0.0, -2.0, 0.0])

    def test_dp_pure_clipping(self):
        g = single(4.0, 0.0)   # norm 4
        policy = DefensePolicy(tag="dp", epsilon_per_round=1.0, clip=1.0)
        out = apply_defense(g, policy, ZeroNoise())
        np.testing.assert_allclose(P.as_vector(out), [1.0, 0.0], rtol=1e-15)

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
            nonzero = int(np.count_nonzero(P.as_vector(out)))
            assert nonzero == math.ceil((1.0 - p) * 37)

    def test_gc_tie_break_by_flat_index(self):
        g = single(0.5, 0.5, 0.5, 0.5)
        out = apply_defense(g, DefensePolicy(tag="gc", prune_fraction=0.5),
                            np.random.default_rng(6))
        np.testing.assert_array_equal(P.as_vector(out), [0.0, 0.0, 0.5, 0.5])

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
        w = o.params_from_vector(np.array([1.0, 1.0]))
        out = local_train(c, w, LrSchedule(mu=1.0, gamma=8.0), 0,
                          np.random.default_rng(7))
        assert out == w

    def test_one_exact_step(self):
        o = quad(np.eye(2), [0.0, 0.0])
        c = ClientState(id=0, n_k=1, objective=o, E=1)
        w = o.params_from_vector(np.array([1.0, 0.0]))
        # lr_at(0) = 2/(1*4) = 0.5
        out = local_train(c, w, LrSchedule(mu=1.0, gamma=4.0), 0,
                          np.random.default_rng(8))
        np.testing.assert_allclose(P.as_vector(out), [0.5, 0.0], rtol=1e-15)

    def test_noiseless_descent(self):
        o = quad(np.eye(3), [0.2, -0.1, 0.4])
        c = ClientState(id=0, n_k=1, objective=o, E=100)
        w = o.params_from_vector(np.array([2.0, 2.0, 2.0]))
        out = local_train(c, w, LrSchedule(mu=1.0, gamma=8.0), 0,
                          np.random.default_rng(9))
        assert o.loss(out) < o.loss(w)

    def test_input_unmodified(self):
        o = quad(np.eye(2), [0.0, 0.0], sigma=0.1)
        c = ClientState(id=0, n_k=1, objective=o, E=3)
        w = o.params_from_vector(np.array([0.5, 0.5]))
        w_copy = P.clone_params(w)
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
        w = P.as_vector(h.w_glb).copy()
        dv = w - o.center
        r = float(np.linalg.norm(dv))
        if r > o.radius:
            w = o.center + dv * (o.radius / r)
        for s in range(len(range(E_STEPS))):
            eta = schedule.lr_at(offset + s)
            dv = w - o.center
            g = o.matrix @ dv
            if o.noise_sigma > 0.0:
                xi = rng.standard_normal(o.dim)
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
        objs = quad_suite(4, 3, seed=22, sigma=0.3)
        sizes = [c.n_k for c in self._clients(objs)]
        schedule = LrSchedule(mu=1.0, gamma=8.0)
        h = GlobalHistory.bootstrap(objs[0].template())
        seed = 23
        for r in range(10):
            expect, _ = naive_fedavg_round(h, objs, sizes, schedule, r * E_STEPS,
                                           seed, r)
            h, rec = run_round(h, self._clients(objs), DiversityRates(0.0, 0.0),
                               schedule, DefensePolicy(), seed=seed)
            np.testing.assert_array_equal(P.as_vector(h.w_glb), expect)

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
        assert P.as_vector(h2.w_glb)[0] == pytest.approx(0.1 * sum(
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
        w_glb, w_prev, w_prev2 = (objs[0].params_from_vector(rng.standard_normal(3))
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

    def test_history_out_receives_final_state(self):
        objs = quad_suite(2, 2, seed=36)
        box = []
        run_federation(self._plan(objs, 3, 37), history_out=box)
        assert len(box) == 1 and box[0].round == 3

    def test_total_iteration_accounting(self):
        objs = quad_suite(2, 2, seed=38)
        recs = run_federation(self._plan(objs, 6, 39, E=5))
        assert len(recs) == 6   # T = 6*5 SGD iterations per client
        assert [r.round for r in recs] == list(range(6))

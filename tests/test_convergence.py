import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from sbpu import convergence
from sbpu import params as P
from sbpu.config import FederationConfig
from sbpu.convergence import (ConvergenceConfig, ConvergenceReport, divergence_bound,
                              final_decade_slope, measure_divergence, optimum_of,
                              run_convergence_experiment, sbpu_variance_term,
                              theorem1_bound, write_report_csv, write_report_json)
from sbpu.federation import ClientState, DefensePolicy, RunPlan, iter_rounds
from sbpu.mutation import DiversityRates
from sbpu.objectives import AssumptionConstants, LrSchedule, QuadraticObjective, constants_for


def quad(A, c, sigma=0.0, radius=10.0):
    return QuadraticObjective(matrix=np.asarray(A, dtype=float),
                              center=np.asarray(c, dtype=float),
                              noise_sigma=sigma, radius=radius)


def near_singular_pair():
    # the combined matrix diag(1e-20, 1.5) has condition number 1.5e20
    return [quad(np.diag([1e-20, 1.0]), [0.0, 0.0], radius=1.0),
            quad(np.diag([1e-20, 2.0]), [0.0, 0.0], radius=1.0)]


def consts(L=2.0, mu=1.0, sigma=(1.0, 1.0), G=2.0, E=2):
    kappa = L / mu
    return AssumptionConstants(L=L, mu=mu, sigma=tuple(sigma), G=G, kappa=kappa,
                               gamma=max(8.0 * kappa, float(E)))


class TestOptimum:
    def test_symmetric_two_client(self):
        objs = [quad(np.eye(2), [1.0, 0.0]), quad(np.eye(2), [-1.0, 0.0])]
        w_star, f_star = optimum_of(objs, [0.5, 0.5])
        np.testing.assert_allclose(P.as_vector(w_star), [0.0, 0.0], atol=1e-15)
        assert f_star == pytest.approx(0.5, rel=1e-15)

    def test_single_client(self):
        o = quad(np.diag([2.0, 5.0]), [0.3, -0.7])
        w_star, f_star = optimum_of([o], [1.0])
        np.testing.assert_allclose(P.as_vector(w_star), [0.3, -0.7], atol=1e-12)
        assert abs(f_star) < 1e-24

    def test_stationarity_residual(self):
        rng = np.random.default_rng(0)
        objs = []
        for _ in range(5):
            M = rng.standard_normal((4, 4))
            objs.append(quad(M @ M.T / 4 + np.eye(4), rng.standard_normal(4)))
        weights = [0.1, 0.2, 0.3, 0.25, 0.15]
        w_star, _ = optimum_of(objs, weights)
        wv = P.as_vector(w_star)
        residual = sum(p * (o.matrix @ (wv - o.center))
                       for p, o in zip(weights, objs))
        assert np.linalg.norm(residual) < 1e-10

    def test_weight_count_checked(self):
        o = quad(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            optimum_of([o], [0.5, 0.5])

    def test_near_singular_combined_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
            optimum_of(near_singular_pair(), [0.5, 0.5])

    @pytest.mark.parametrize("K,d,seed", [(2, 3, 1), (4, 16, 2), (8, 5, 3)])
    def test_bits_of_the_direct_solve(self, K, d, seed):
        # the condition check leaves w* to np.linalg.solve and f* to fsum
        rng = np.random.default_rng(seed)
        objs = []
        for _ in range(K):   # federation tests' quad_suite
            M = rng.standard_normal((d, d))
            objs.append(quad(M @ M.T / d + np.eye(d), 0.5 * rng.standard_normal(d)))
        weights = [float(n) / K / (K + 1) * 2 for n in range(1, K + 1)]
        A = sum(p * o.matrix for p, o in zip(weights, objs))
        rhs = sum(p * (o.matrix @ o.center) for p, o in zip(weights, objs))
        want = objs[0].params_from_vector(np.linalg.solve(A, rhs))
        w_star, f_star = optimum_of(objs, weights)
        assert P.as_vector(w_star).tobytes() == P.as_vector(want).tobytes()
        assert f_star == math.fsum(p * o.loss(want) for p, o in zip(weights, objs))


class TestTheorem1Bound:
    def test_alpha_zero_is_noise_only(self):
        c = consts(sigma=(1.0, 2.0))
        K = 2
        B = (1.0 + 4.0) / 4.0
        expect = 4.0 * c.kappa / (c.gamma + 50) * (B / (2.0 * c.mu) + c.L * 1.0)
        assert theorem1_bound(c, 0.0, 2, K, 1.0, 50) == pytest.approx(expect, rel=1e-15)

    def test_spot_value(self):
        c = consts(L=2.0, mu=1.0, sigma=(1.0, 1.0), G=2.0, E=2)
        got = theorem1_bound(c, 0.1, 2, 2, 1.0, 100)
        assert got == pytest.approx(35.0 / 174.0, rel=1e-12)

    def test_E1_kills_perturbation_term(self):
        c = consts()
        assert theorem1_bound(c, 0.4, 1, 2, 1.0, 10) == theorem1_bound(c, 0.0, 1, 2, 1.0, 10)

    def test_monotone_decreasing_in_T(self):
        c = consts()
        vals = [theorem1_bound(c, 0.1, 2, 2, 1.0, T) for T in (1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_alpha(self):
        c = consts()
        vals = [theorem1_bound(c, a, 3, 2, 1.0, 100) for a in (0.05, 0.1, 0.2, 0.4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_error_cites_denominator(self):
        with pytest.raises(ValueError, match="4\\*alpha"):
            sbpu_variance_term(0.5, 2, 1.0)
        with pytest.raises(ValueError):
            theorem1_bound(consts(), 0.6, 2, 2, 1.0, 10)


class TestDivergenceBound:
    def test_E1_zero(self):
        assert divergence_bound(0.1, 0.5, 1, 3.0) == 0.0

    def test_direct_value(self):
        assert divergence_bound(0.1, 0.1, 3, 1.0) == pytest.approx(1.0 / 150.0, rel=1e-12)

    def test_vanishes_with_alpha(self):
        vals = [divergence_bound(a, 0.1, 3, 1.0) for a in (0.1, 0.01, 0.001)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_domain_error(self):
        with pytest.raises(ValueError):
            divergence_bound(0.5, 0.1, 2, 1.0)


class TestMeasureDivergence:
    def _p(self, *values):
        return P.from_arrays([np.array([list(values)])])

    def test_identical_zero(self):
        w = self._p(1.0, 2.0)
        assert measure_divergence([w, P.clone_params(w)], [1, 1]) == 0.0

    def test_symmetric_pair(self):
        assert measure_divergence([self._p(0.0), self._p(2.0)], [1, 1]) == 1.0

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(1)
        ws = [P.from_arrays([rng.standard_normal((2, 3))]) for _ in range(4)]
        sizes = [1, 2, 3, 4]
        mean = sum((n / 10.0) * P.as_vector(w) for n, w in zip(sizes, ws))
        expect = sum((n / 10.0) * np.sum((mean - P.as_vector(w)) ** 2)
                     for n, w in zip(sizes, ws))
        assert measure_divergence(ws, sizes) == pytest.approx(expect, rel=1e-12)

    def test_variance_decomposition_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ws = [P.from_arrays([rng.standard_normal((1, 4))]) for _ in range(3)]
            sizes = [int(rng.integers(1, 6)) for _ in range(3)]
            total = sum(sizes)
            mean = sum((n / total) * P.as_vector(w) for n, w in zip(sizes, ws))
            alt = sum((n / total) * float(np.sum(P.as_vector(w) ** 2))
                      for n, w in zip(sizes, ws)) - float(np.sum(mean ** 2))
            assert measure_divergence(ws, sizes) == pytest.approx(alt, rel=1e-9,
                                                                  abs=1e-12)


def tiny_plan(seed=5, sigma=0.0, E=1, rounds=60, rates=DiversityRates(0.0, 0.0)):
    rng = np.random.default_rng(seed)
    objs = []
    for _ in range(2):
        M = rng.standard_normal((3, 3))
        objs.append(quad(M @ M.T / 3 + np.eye(3),
                         0.3 * rng.standard_normal(3), sigma=sigma, radius=4.0))
    clients = tuple(ClientState(id=k, n_k=1, objective=o, E=E)
                    for k, o in enumerate(objs))
    L = max(o.smoothness for o in objs)
    mu = min(o.strong_convexity for o in objs)
    return RunPlan(clients=clients, rates=rates,
                   schedule=LrSchedule(mu=mu, gamma=max(8.0 * L / mu, float(E))),
                   policy=DefensePolicy(), rounds=rounds, seed=seed,
                   w_init=objs[0].template(), tie_gradients=True)


class TestExperiment:
    def test_deterministic_noiseless_gap_decay(self):
        # noiseless gradient descent decays at least as fast as the 1/T
        # envelope (faster in practice on smooth quadratics)
        cfg = ConvergenceConfig(plan=tiny_plan(), alpha=0.0, n_seeds=1)
        rep = run_convergence_experiment(cfg)
        gaps = [g for _, g, _ in rep.series]
        assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert final_decade_slope(rep.series) <= -0.7

    def test_noisy_gap_follows_one_over_T(self):
        # with gradient noise the expected gap tracks the Theta(1/T) rate
        cfg = ConvergenceConfig(plan=tiny_plan(sigma=0.3, rounds=600),
                                alpha=0.0, n_seeds=6)
        rep = run_convergence_experiment(cfg)
        assert -1.3 <= final_decade_slope(rep.series) <= -0.7

    def test_bound_series_positive_decreasing(self):
        cfg = ConvergenceConfig(plan=tiny_plan(sigma=0.1), alpha=0.1, n_seeds=2)
        rep = run_convergence_experiment(cfg)
        bounds = [b for _, _, b in rep.series]
        assert all(b > 0.0 for b in bounds)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_gap_nonnegative(self):
        cfg = ConvergenceConfig(plan=tiny_plan(sigma=0.2), alpha=0.05, n_seeds=2)
        rep = run_convergence_experiment(cfg)
        assert all(g >= -1e-12 for _, g, _ in rep.series)

    def test_measured_divergence_within_bound_every_step(self):
        # a compliant round (alpha = beta1 = 0.1, tied lagged gradients,
        # E = 2): each local step's measured client divergence stays within
        # divergence_bound at that step's learning rate
        alpha, E = 0.1, 2
        plan = tiny_plan(sigma=0.3, E=E, rounds=80, rates=DiversityRates(alpha, 0.075))
        objs = [c.objective for c in plan.clients]
        G = constants_for(objs, E, max(o.radius for o in objs)).G
        steps = 0
        for _, rec in iter_rounds(plan):
            for s, d in enumerate(rec.step_divergences):
                t = rec.round * E + s
                assert 0.0 < d <= divergence_bound(alpha, plan.schedule.lr_at(t), E, G), t
                steps += 1
        assert steps == 80 * E

    def test_quadratics_required(self):
        from sbpu.objectives import ClassifierObjective
        obj = ClassifierObjective(architecture=((2, 2, "linear"),),
                                  data_x=np.zeros((2, 2)),
                                  data_y=np.array([0, 1]))
        clients = (ClientState(id=0, n_k=1, objective=obj, E=1),)
        plan = RunPlan(clients=clients, rates=DiversityRates(0.0, 0.0),
                       schedule=LrSchedule(mu=1.0, gamma=8.0),
                       policy=DefensePolicy(), rounds=1, seed=0,
                       w_init=obj.zero_params())
        with pytest.raises(ValueError):
            ConvergenceConfig(plan=plan, alpha=0.1)

    @pytest.mark.parametrize("mu,gamma", [(None, 1.0), (0.2, None)])
    def test_schedule_off_the_constants_rejected(self, mu, gamma):
        # the bounds and the report's constants hold on eta_t = 2/(mu (t + gamma))
        # with the clients' mu and gamma = max(8 kappa, E) only
        plan = tiny_plan()
        schedule = LrSchedule(mu=mu or plan.schedule.mu, gamma=gamma or plan.schedule.gamma)
        with pytest.raises(ValueError, match="the bounds hold on the schedule"):
            ConvergenceConfig(plan=dataclasses.replace(plan, schedule=schedule), alpha=0.1)

    def test_singular_combined_matrix_rejected_at_admission(self):
        objs = near_singular_pair()
        c = constants_for(objs, 2, 1.0)
        plan = RunPlan(clients=tuple(ClientState(id=k, n_k=1, objective=o, E=2)
                                     for k, o in enumerate(objs)),
                       rates=DiversityRates(0.05, 0.04), schedule=LrSchedule(mu=c.mu, gamma=c.gamma),
                       policy=DefensePolicy(), rounds=3, seed=1, w_init=objs[0].template())
        with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
            ConvergenceConfig(plan=plan, alpha=0.05)

    def test_variance_term_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(convergence, "sbpu_variance_term",
                            lambda *a: calls.append(a) or sbpu_variance_term(*a))
        rep = run_convergence_experiment(ConvergenceConfig(plan=tiny_plan(E=2, rounds=60),
                                                           alpha=0.1, n_seeds=1))
        assert len(calls) == 1
        # with theorem1_bound's bits at every recorded T
        assert [b for _, _, b in rep.series] == [
            theorem1_bound(rep.constants, 0.1, 2, 2, rep.D0, T) for T, _, _ in rep.series]

    def test_eigenvalues_computed_once_per_objective(self, monkeypatch):
        # K = 4: each objective's eigvalsh at construction, which its smoothness,
        # strong convexity and the cohort's loss certificate then read, and one on
        # the combined matrix for the optimum's condition check at admission
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        cfg = FederationConfig.from_dict({
            "objective": {"kind": "quadratic_random", "dim": 16, "eig_range": [1.0, 2.0],
                          "center_spread": 0.3, "radius": 4.0, "sigma": 0.1},
            "K": 4, "E": 2, "rounds": 3, "alpha": 0.05, "n_seeds": 2, "seed": 91})
        ccfg = cfg.build_convergence()
        assert len(calls) == 5
        run_convergence_experiment(ccfg)
        assert len(calls) == 5

    def test_report_serialization(self, tmp_path):
        cfg = ConvergenceConfig(plan=tiny_plan(rounds=5), alpha=0.0, n_seeds=1)
        rep = run_convergence_experiment(cfg)
        write_report_csv(rep, tmp_path / "r.csv")
        write_report_json(rep, tmp_path / "r.json")
        lines = (tmp_path / "r.csv").read_text().strip().split("\n")
        assert lines[0] == "T,gap,bound,divergence,divergence_bound"
        assert len(lines) == 6
        import json
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["single_seed_note"] == "single-seed (not an expectation)"


def test_report_writers_build_no_per_row_copies(tmp_path):
    # a 1,500-round, E = 2 report whose divergence series lacks the last step
    rep = ConvergenceReport(
        series=tuple((2 * r + 2, 1.0 / (r + 1), 3.0 / (r + 1)) for r in range(1500)),
        divergence_series=tuple((t, 1e-3 / (t + 1), 2e-3 / (t + 1), 5e-3 / (t + 1))
                                for t in range(2999)),
        constants=consts(), B=1.5, f_star=0.25, D0=2.0, n_seeds=2)
    for write, name in ((write_report_json, "r.json"), (write_report_csv, "r.csv")):
        tracemalloc.start()
        try:
            write(rep, tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024, (name, peak)
    lines = (tmp_path / "r.csv").read_text().split("\n")
    assert lines[1] == "2,1,3,0.0005,0.0025" and lines[-2] == "3000,0.000666667,0.002,nan,nan"
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["series"][0] == [2, 1.0, 3.0] and len(data["divergence_series"]) == 2999

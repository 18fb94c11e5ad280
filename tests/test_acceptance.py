"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package at a pinned tolerance
and prints a single PASS/FAIL line on the live terminal (bypassing capture),
so the gate's verdict is visible even in a quiet pytest run.
"""

import itertools
import time

import numpy as np
from scipy import stats

from sbpu import params as P
from sbpu import seeds
from sbpu.attacks import (final_bias_gradient, ir_experiment, lia_experiment,
                          lia_infer_counts, mia_experiment)
from sbpu.config import FederationConfig, build_objectives
from sbpu.convergence import (ConvergenceConfig, final_decade_slope,
                              run_convergence_experiment, theorem1_bound)
from sbpu.federation import run_round
from sbpu.mutation import (DiversityRates, GlobalHistory, apply_stochastic_lists,
                           build_stochastic_list, check_neighborhood_bound,
                           sbpu_mutate, stochastic_multiset)
from sbpu.objectives import AssumptionConstants, ClassifierObjective


def _report(capsys, n, ok, detail):
    line = f"[AC-{n:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_ac01_mutation_matches_per_filter_oracle(capsys):
    """1000 random instances, bit-for-bit against a scalar re-evaluation."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    mismatches = 0
    for i in range(1000):
        n_layers = int(rng.integers(1, 4))
        shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 7)))
                  for _ in range(n_layers)]
        w = P.from_arrays([rng.standard_normal(s) for s in shapes])
        g = P.from_arrays([rng.standard_normal(s) for s in shapes])
        gp = P.from_arrays([rng.standard_normal(s) for s in shapes])
        rates = DiversityRates(beta1=float(rng.uniform(0.01, 0.9)),
                               beta2=float(rng.uniform(0.01, 0.9)))

        got = sbpu_mutate(w, g, gp, rates, seeds.stream(7, "ac1", i))

        # regenerate the selector lists from an identical stream, then apply
        # the branch formula one scalar at a time
        r2 = seeds.stream(7, "ac1", i)
        lists = [build_stochastic_list(f, r2) for f, _ in shapes]
        for li, (lw, lg, lgp, sel) in enumerate(zip(w.layers, g.layers,
                                                    gp.layers, lists)):
            for j in range(lw.n_filters):
                s = int(sel[j])
                for c in range(lw.filters.shape[1]):
                    if abs(s) == 1:
                        want = lw.filters[j, c] + rates.beta1 * s * lg.filters[j, c]
                    else:
                        want = lw.filters[j, c] + rates.beta2 * s * lgp.filters[j, c]
                    if got.layers[li].filters[j, c] != want:
                        mismatches += 1
    dt = time.perf_counter() - t0
    _report(capsys, 1, mismatches == 0 and dt < 1.0,
            f"per-filter mutation oracle, 1000 instances, "
            f"{mismatches} mismatches ({dt:.2f} s, limit 1 s)")


def test_ac02_selector_list_law_and_shuffle_uniformity(capsys):
    t0 = time.perf_counter()
    pad = [-1, 1, -2, 2]
    bad = 0
    for f in range(1, 65):
        q = f // 4
        want = sorted([-1] * q + [1] * q + [-2] * q + [2] * q + pad[: f - 4 * q])
        for s in range(100):
            got = sorted(build_stochastic_list(f, seeds.stream(5, "ac2", f, s)))
            if list(got) != want:
                bad += 1

    rng = seeds.stream(5, "ac2", "chisq")
    perms = sorted(set(itertools.permutations(stochastic_multiset(4))))
    index = {p: i for i, p in enumerate(perms)}
    counts = np.zeros(len(perms))
    for _ in range(100_000):
        counts[index[tuple(build_stochastic_list(4, rng))]] += 1
    p_value = float(stats.chisquare(counts).pvalue)
    dt = time.perf_counter() - t0
    _report(capsys, 2, bad == 0 and p_value > 0.001 and dt < 10.0,
            f"multiset law f=1..64 x100 seeds ({bad} bad), shuffle chi^2 "
            f"p={p_value:.3f} > 0.001 ({dt:.2f} s, limit 10 s)")


def test_ac03_neighborhood_bound_compliant_regime(capsys):
    violations, checked = 0, 0
    for alpha in (0.1, 0.2, 0.4):
        cfg = FederationConfig.from_dict({
            "objective": {"kind": "quadratic_random", "dim": 8,
                          "eig_range": [1.0, 2.0], "center_spread": 0.3,
                          "radius": 4.0, "sigma": 0.3, "layout": [[8, 1]]},
            "K": 10, "E": 2, "rounds": 50, "alpha": alpha,
            "beta1": alpha, "beta2": 0.75 * alpha,
            "tie_gradients": True, "seed": 303,
        })
        plan = cfg.build_plan()
        h = GlobalHistory.bootstrap(plan.w_init)
        for _ in range(plan.rounds):
            h, rec = run_round(h, plan.clients, plan.rates, plan.schedule,
                               plan.policy, plan.seed, alpha=alpha,
                               tie_gradients=plan.tie_gradients)
            checked += len(rec.bound_reports)
            violations += sum(not r.holds for r in rec.bound_reports)

        # exhaustive over every selector shuffle for small filter counts
        rng = np.random.default_rng(17)
        rates = DiversityRates(beta1=alpha, beta2=0.75 * alpha)
        for f in range(1, 9):
            w = P.from_arrays([np.zeros((f, 1))])
            delta = P.from_arrays([rng.standard_normal((f, 1))])
            prev = P.add_scaled(w, -1.0, delta)
            hist = GlobalHistory(w_glb=w, w_prev=prev, w_prev2=prev, round=3)
            for perm in set(itertools.permutations(stochastic_multiset(f))):
                w_loc = apply_stochastic_lists(w, delta, delta, rates, [perm])
                checked += 1
                if not check_neighborhood_bound(w_loc, hist, alpha).holds:
                    violations += 1
    _report(capsys, 3, violations == 0,
            f"neighborhood bound, alpha in {{0.1,0.2,0.4}}, K=10 x 50 rounds "
            f"+ exhaustive shuffles f<=8: {violations} violations of {checked}")


def test_ac04_fedavg_reduction_bit_identical(capsys):
    K, E, rounds, seed = 10, 3, 50, 404
    objs = build_objectives({"kind": "quadratic_random", "dim": 6,
                             "eig_range": [1.0, 3.0], "center_spread": 0.4,
                             "radius": 5.0, "sigma": 0.3}, K, seed)
    cfg = FederationConfig.from_dict({
        "objective": {"kind": "quadratic_random", "dim": 6,
                      "eig_range": [1.0, 3.0], "center_spread": 0.4,
                      "radius": 5.0, "sigma": 0.3},
        "K": K, "E": E, "rounds": rounds, "beta1": 0.0, "beta2": 0.0,
        "seed": seed,
    })
    plan = cfg.build_plan()
    sizes = [c.n_k for c in plan.clients]
    total = float(sum(sizes))

    def reference_round(w_vec, round_idx):
        finals = []
        for k, o in enumerate(objs):
            rng = seeds.stream(seed, "train", round_idx, k)
            w = w_vec.copy()
            for s in range(E):
                dv = w - o.center
                r = float(np.linalg.norm(dv))
                if r > o.radius:
                    w = o.center + dv * (o.radius / r)
                eta = plan.schedule.lr_at(round_idx * E + s)
                g = o.matrix @ (w - o.center)
                xi = rng.standard_normal(o.center.size)
                g = g + (o.noise_sigma / np.linalg.norm(xi)) * xi
                w = w - eta * g
            dv = w - o.center
            r = float(np.linalg.norm(dv))
            if r > o.radius:
                w = o.center + dv * (o.radius / r)
            finals.append(w)
        acc = finals[0].copy()
        for u, nk in zip(finals[1:], sizes[1:]):
            acc += (nk / total) * (u - finals[0])
        return acc

    h = GlobalHistory.bootstrap(plan.w_init)
    ref = plan.w_init.vector.copy()
    diverged_at = None
    for r in range(rounds):
        h, _ = run_round(h, plan.clients, plan.rates, plan.schedule,
                         plan.policy, plan.seed)
        ref = reference_round(ref, r)
        if h.w_glb.vector.tobytes() != ref.tobytes():
            diverged_at = r
            break
    _report(capsys, 4, diverged_at is None,
            f"beta=0 trajectory bit-identical to independent flat FedAvg, "
            f"K=10, {rounds} rounds"
            + ("" if diverged_at is None else f" (diverged at round {diverged_at})"))


def _c5_config():
    return FederationConfig.from_dict({
        "objective": {"kind": "quadratic_random", "dim": 8,
                      "eig_range": [1.0, 1.0], "center_spread": 0.3,
                      "radius": 6.0, "sigma": 0.5, "shared_matrix": True,
                      "layout": [[8, 1]]},
        "K": 4, "E": 5, "rounds": 40, "alpha": 0.1,
        "beta1": 0.1, "beta2": 0.08, "tie_gradients": True, "seed": 20260824,
    })


def test_ac05_client_divergence_bound_every_step(capsys):
    t0 = time.perf_counter()
    plan = _c5_config().build_plan()
    rep = run_convergence_experiment(ConvergenceConfig(plan=plan, alpha=0.1,
                                                       n_seeds=4))
    bad = sum(1 for _, _, mx, b in rep.divergence_series
              if mx > b * (1.0 + 1e-6))
    worst = min((b - mx) / b for _, _, mx, b in rep.divergence_series)
    dt = time.perf_counter() - t0
    _report(capsys, 5, bad == 0 and dt < 30.0,
            f"client divergence <= bound at all {len(rep.divergence_series)} "
            f"SGD steps (E=5, alpha=0.1, sigma=0.5), {bad} violations, "
            f"worst margin {worst:.3f} ({dt:.1f} s, limit 30 s)")


def _c6_config():
    return FederationConfig.from_dict({
        "objective": {"kind": "quadratic_random", "dim": 16,
                      "eig_range": [1.0, 2.0], "center_spread": 0.3,
                      "radius": 4.0, "sigma": 0.1, "layout": [[16, 1]]},
        "K": 4, "E": 2, "rounds": 2500, "alpha": 0.05,
        "beta1": 0.05, "beta2": 0.0375, "tie_gradients": True, "seed": 77,
    })


def test_ac06_convergence_gap_under_bound(capsys):
    t0 = time.perf_counter()
    plan = _c6_config().build_plan()
    rep = run_convergence_experiment(ConvergenceConfig(plan=plan, alpha=0.05,
                                                       n_seeds=32))
    bad = sum(1 for _, g, b in rep.series if g > b)
    slope = final_decade_slope(rep.series)
    dt = time.perf_counter() - t0
    ok = bad == 0 and -1.3 <= slope <= -0.7 and dt < 300.0
    _report(capsys, 6, ok,
            f"K=4 d=16 mean gap (32 seeds) under bound at all "
            f"{len(rep.series)} recorded T up to 5000 ({bad} violations), "
            f"final-decade slope {slope:.2f} in [-1.3,-0.7] "
            f"({dt:.0f} s, limit 300 s)")


def test_ac07_bound_formula_spot_value(capsys):
    c = AssumptionConstants(L=2.0, mu=1.0, sigma=(1.0, 1.0), G=2.0,
                            kappa=2.0, gamma=16.0)
    got = theorem1_bound(c, alpha=0.1, E=2, K=2, D0=1.0, T=100)
    err = abs(got - 35.0 / 174.0) / (35.0 / 174.0)
    _report(capsys, 7, err <= 1e-12,
            f"theorem bound spot value {got!r} vs 35/174, rel err {err:.1e}")


def test_ac08_label_inference(capsys):
    # exhaustive exact recovery for every tiny batch
    rng = np.random.default_rng(808)
    exact_bad = 0
    for n_c in (2, 3):
        obj = ClassifierObjective(
            architecture=((2, 5, "sigmoid"), (5, n_c, "linear")))
        w = obj.init_params(rng, scale=0.4)
        for bs in (1, 2, 3, 4):
            x = rng.uniform(size=(bs, 2))
            for labels in itertools.product(range(n_c), repeat=bs):
                y = np.array(labels)
                bias_grad = final_bias_gradient(obj.grad(w, (x, y)))
                mean_pred = np.mean(obj.predict(w, x), axis=0)
                counts = lia_infer_counts(bias_grad, mean_pred, bs)
                if not np.array_equal(counts, np.bincount(y, minlength=n_c)):
                    exact_bad += 1

    errors = [lia_experiment(seed, bs=32, n_probes=1000).label_count_error
              for seed in range(100)]
    mean_err = float(np.mean(errors))
    _report(capsys, 8, exact_bad == 0 and mean_err <= 0.1 * 32,
            f"label counts exact for all batches bs<=4 n_c<=3 "
            f"({exact_bad} bad); probe-based mean L1 error {mean_err:.2f} "
            f"<= 3.2 over 100 trials (max {max(errors)})")


def test_ac09_input_reconstruction_contrast(capsys):
    t0 = time.perf_counter()
    res = ir_experiment(seed=0)
    dt = time.perf_counter() - t0
    ok = (res["max_error"] <= 1e-3 and res["psnr_db"] > 40.0
          and res["objective_mismatched"] > 10.0 * res["objective_matched"]
          and dt < 60.0)
    _report(capsys, 9, ok,
            f"reconstruction max err {res['max_error']:.1e} <= 1e-3, "
            f"PSNR {res['psnr_db']:.0f} dB > 40, mismatched objective "
            f"{res['objective_mismatched']:.2e} > 10x matched "
            f"{res['objective_matched']:.2e} ({dt:.0f} s, limit 60 s)")


def test_ac10_membership_inference_ordering(capsys):
    t0 = time.perf_counter()
    shared = [mia_experiment("shared", s).member.f1 for s in range(10)]
    blind = [mia_experiment("no_sharing", s).member.f1 for s in range(10)]
    chance = [mia_experiment("chance", s).accuracy for s in range(10)]
    gap = float(np.mean(shared) - np.mean(blind))
    acc = float(np.mean(chance))
    dt = time.perf_counter() - t0
    ok = gap >= 0.1 and 0.4 <= acc <= 0.6 and dt < 120.0
    _report(capsys, 10, ok,
            f"member F1 gap shared-vs-none {gap:.2f} >= 0.1, chance-level "
            f"control accuracy {acc:.2f} in [0.4,0.6], 10 seeds each "
            f"({dt:.0f} s, limit 120 s)")

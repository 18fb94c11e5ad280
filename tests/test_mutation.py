import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpu import mutation
from sbpu import params as P
from sbpu import seeds
from sbpu.federation import ROUND_BLOCK, ClientState, Cohort
from sbpu.mutation import (DiversityRates, GlobalHistory, _selector_plan,
                           apply_stochastic_lists, build_stochastic_list,
                           check_neighborhood_bound, generate_diverse_models, sbpu_mutate,
                           stochastic_multiset)
from sbpu.objectives import ClassifierObjective, QuadraticObjective

from conftest import pair_like, random_params, stream_lists


def single(*values):
    return P.from_arrays([np.array([list(values)])])


def row_params(rows):
    return P.from_arrays([np.array(rows, dtype=float)])


class TestDiversityRates:
    def test_from_beta_squares(self):
        r = DiversityRates.from_beta(0.15)
        assert (r.beta1, r.beta2) == (0.15, 0.0225)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DiversityRates(-0.1, 0.0)


@pytest.mark.parametrize("beta1,beta2", [(math.inf, 0.0), (0.1, math.inf), (math.nan, 0.0),
                                         (0.1, math.nan), (0.1, -0.1)])
def test_diversity_rates_must_be_finite_and_nonnegative(beta1, beta2):
    with pytest.raises(ValueError, match="finite and >= 0"):
        DiversityRates(beta1, beta2)


def test_overflowing_square_rejected():
    # beta ** 2 = inf: a config error, not a run that diverges
    with pytest.raises(ValueError, match="beta2=inf"):
        DiversityRates.from_beta(1e200)


class TestStochasticList:
    def test_f8_balanced(self):
        assert Counter(stochastic_multiset(8)) == {-1: 2, 1: 2, -2: 2, 2: 2}

    def test_f4_one_of_each(self):
        assert sorted(stochastic_multiset(4)) == [-2, -1, 1, 2]

    def test_f10_padding(self):
        assert Counter(stochastic_multiset(10)) == {-1: 3, 1: 3, -2: 2, 2: 2}

    def test_small_f_padding_only(self):
        assert stochastic_multiset(1) == [-1]
        assert stochastic_multiset(2) == [-1, 1]
        assert stochastic_multiset(3) == [-1, 1, -2]

    def test_invalid_f(self):
        with pytest.raises(ValueError):
            stochastic_multiset(0)

    @given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200)
    def test_multiset_law(self, f, seed):
        lst = build_stochastic_list(f, seeds.stream(seed, "list"))
        assert len(lst) == f
        assert sorted(lst) == sorted(stochastic_multiset(f))

    def test_deterministic_given_seed(self):
        a = build_stochastic_list(12, seeds.stream(1, "x"))
        b = build_stochastic_list(12, seeds.stream(1, "x"))
        assert np.array_equal(a, b)


class TestMutate:
    def test_zero_gradients_identity(self):
        rng = np.random.default_rng(0)
        w = random_params(rng)
        z = P.from_vector(np.zeros_like(w.vector), w)
        out = sbpu_mutate(w, z, z, DiversityRates(0.5, 0.25), np.random.default_rng(1))
        assert out == w

    def test_zero_rates_identity(self):
        rng = np.random.default_rng(2)
        w = random_params(rng)
        out = sbpu_mutate(w, pair_like(rng, w), pair_like(rng, w),
                          DiversityRates(0.0, 0.0), np.random.default_rng(3))
        assert out == w

    def test_lists_and_generator_state_match_per_layer_lists(self):
        # sbpu_mutate draws all layers' lists in one call through the layout's
        # cached plan: same values as build_stochastic_list layer by layer, and
        # the same generator state after, also from a buffered uint32
        rng = np.random.default_rng(6)
        for t in range(200):
            w = random_params(rng, max_filters=70)
            g, gp = pair_like(rng, w), pair_like(rng, w)
            rates = DiversityRates(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            a, b = seeds.stream(8, "plan", t), seeds.stream(8, "plan", t)
            if t % 2:
                a.integers(0, 7, dtype=np.uint32)
                b.integers(0, 7, dtype=np.uint32)
            got = sbpu_mutate(w, g, gp, rates, a)
            lists = [build_stochastic_list(l.n_filters, b) for l in w.layers]
            assert got.vector.tobytes() == apply_stochastic_lists(w, g, gp, rates, lists).vector.tobytes()
            assert a.bit_generator.state == b.bit_generator.state

    def test_injected_list_hand_computed(self):
        w = row_params([[1.0], [1.0], [1.0], [1.0]])
        g = row_params([[0.1], [0.2], [0.3], [0.4]])
        gp = row_params([[0.2], [0.2], [0.2], [0.2]])
        out = apply_stochastic_lists(w, g, gp, DiversityRates(0.5, 0.25),
                                     [[1, -1, 2, -2]])
        np.testing.assert_allclose(out.vector, [1.05, 0.9, 1.1, 0.9],
                                   rtol=1e-15)

    def test_invalid_list_entry_rejected(self):
        w = row_params([[1.0], [1.0], [1.0], [1.0]])
        with pytest.raises(ValueError):
            apply_stochastic_lists(w, w, w, DiversityRates(0.1, 0.1), [[1, -1, 0, 2]])

    @pytest.mark.parametrize("lists, message", [
        ([[1, -1], [2, 2, 2]], "layer 1: list length 3 != 2 filters"),
        ([[1, 3], [2, 2, 2]], "layer 0: entries must"),          # layer order first
        ([[1], [2, 0]], "layer 0: list length 1 != 2 filters"),  # then length, then entries
        ([[1, -2], [2, -3]], "layer 1: entries must"),
        ([[1, -2], [2, -2 ** 63]], "layer 1: entries must"),     # |s| overflows int64
        ([[1, -2], [2, 2 ** 62]], "layer 1: entries must"),
    ])
    def test_list_errors_name_the_first_bad_layer(self, lists, message):
        w = P.from_arrays([np.ones((2, 3)), np.ones((2, 1))])
        with pytest.raises(ValueError, match=message):
            apply_stochastic_lists(w, w, w, DiversityRates(0.1, 0.1), lists)

    def test_per_filter_locality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = random_params(rng)
            g = pair_like(rng, w)
            gp = pair_like(rng, w)
            rates = DiversityRates(0.3, 0.2)
            for li, layer in enumerate(w.layers):
                f = layer.n_filters
                base = [[1] * l.n_filters for l in w.layers]
                for j in range(f):
                    lists = [list(b) for b in base]
                    lists[li][j] = -2
                    a = apply_stochastic_lists(w, g, gp, rates, base)
                    b = apply_stochastic_lists(w, g, gp, rates, lists)
                    d = P.add_scaled(a, -1.0, b)
                    for lj, ld in enumerate(d.layers):
                        nz = np.flatnonzero(np.any(ld.filters != 0.0, axis=1))
                        if lj == li:
                            assert set(nz) <= {j}
                        else:
                            assert nz.size == 0

    def test_oracle_per_filter_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = random_params(rng)
            g = pair_like(rng, w)
            gp = pair_like(rng, w)
            rates = DiversityRates(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            lists = [build_stochastic_list(l.n_filters, rng) for l in w.layers]
            out = apply_stochastic_lists(w, g, gp, rates, lists)
            for lw, lg, lgp, lo, sel in zip(w.layers, g.layers, gp.layers,
                                            out.layers, lists):
                for j, s in enumerate(sel):
                    if s in (-1, 1):
                        expect = lw.filters[j] + rates.beta1 * s * lg.filters[j]
                    else:
                        expect = lw.filters[j] + rates.beta2 * s * lgp.filters[j]
                    np.testing.assert_array_equal(lo.filters[j], expect)

    def test_inputs_unmodified(self):
        rng = np.random.default_rng(6)
        w = random_params(rng)
        g = pair_like(rng, w)
        w_copy, g_copy = P.from_vector(w.vector, w), P.from_vector(g.vector, g)
        sbpu_mutate(w, g, g, DiversityRates(0.4, 0.3), np.random.default_rng(7))
        assert w == w_copy and g == g_copy


class TestGlobalHistory:
    def test_bootstrap_all_equal(self):
        w = single(1.0, 2.0)
        h = GlobalHistory.bootstrap(w)
        assert h.w_prev == w and h.w_prev2 == w and h.round == 0

    def test_bootstrap_invariant_enforced(self):
        with pytest.raises(ValueError):
            GlobalHistory(single(1.0), single(2.0), single(1.0), round=1)

    def test_rotation_before_round_two_tracks_aggregate(self):
        h = GlobalHistory.bootstrap(single(0.0))
        h1 = h.rotated(single(1.0))
        assert h1.round == 1
        assert h1.w_prev == single(1.0) and h1.w_prev2 == single(1.0)

    def test_rotation_after_round_two(self):
        h = GlobalHistory.bootstrap(single(0.0)).rotated(single(1.0))
        h2 = h.rotated(single(2.0))
        assert (h2.w_glb, h2.w_prev, h2.w_prev2) == (single(2.0), single(1.0), single(1.0))
        h3 = h2.rotated(single(3.0))
        assert (h3.w_glb, h3.w_prev, h3.w_prev2) == (single(3.0), single(2.0), single(1.0))

    def test_tie_gradients_rotation(self):
        h = GlobalHistory.bootstrap(single(0.0)).rotated(single(1.0)).rotated(single(2.0))
        h3 = h.rotated(single(3.0), tie_gradients=True)
        assert h3.w_prev == single(2.0) and h3.w_prev2 == single(2.0)
        assert P.add_scaled(h3.w_glb, -1.0, h3.w_prev) == P.add_scaled(h3.w_glb, -1.0, h3.w_prev2)


class TestGenerateDiverseModels:
    def test_bootstrap_returns_copies(self):
        h = GlobalHistory.bootstrap(single(1.0, -1.0))
        out = generate_diverse_models(h, 5, DiversityRates(0.5, 0.25), seed=1)
        assert len(out) == 5
        assert all(m == h.w_glb for m in out)

    def test_single_client_matches_direct_mutation(self):
        h = GlobalHistory(row_params([[2.0], [2.0], [2.0], [2.0]]),
                          row_params([[1.0], [1.5], [0.5], [1.0]]),
                          row_params([[0.0], [1.0], [0.0], [0.5]]), round=3)
        rates = DiversityRates(0.3, 0.2)
        g, gp = P.add_scaled(h.w_glb, -1.0, h.w_prev), P.add_scaled(h.w_glb, -1.0, h.w_prev2)
        out = generate_diverse_models(h, 1, rates, seed=9)
        direct = sbpu_mutate(h.w_glb, g, gp, rates, seeds.stream(9, "sbpu", 3, 0))
        assert out == [direct]

    def test_pairwise_distinct_on_concrete_seed(self):
        rng = np.random.default_rng(8)
        w = P.from_arrays([rng.standard_normal((8, 3))])
        prev = pair_like(rng, w)
        prev2 = pair_like(rng, w)
        h = GlobalHistory(w, prev, prev2, round=5)
        out = generate_diverse_models(h, 10, DiversityRates(0.5, 0.25), seed=123)
        for a, b in itertools.combinations(out, 2):
            assert P.sq_distance(a, b) > 0.0

    def test_determinism_across_calls(self):
        rng = np.random.default_rng(9)
        w = random_params(rng)
        h = GlobalHistory(w, pair_like(rng, w), pair_like(rng, w), round=7)
        a = generate_diverse_models(h, 4, DiversityRates(0.2, 0.1), seed=42)
        b = generate_diverse_models(h, 4, DiversityRates(0.2, 0.1), seed=42)
        assert a == b


class TestDispatchTrims:
    @pytest.mark.parametrize("shapes", [[(8, 1)], [(5, 3), (1, 3), (4, 1)]])
    def test_tied_history_same_bits_as_an_equal_copy(self, shapes):
        # w_prev2 is w_prev forms g once and skips np.where: the bits of
        # a history whose two lagged slots are equal but distinct values
        rng = np.random.default_rng(83)
        w = P.from_arrays([rng.standard_normal(s) for s in shapes])
        prev = pair_like(rng, w)
        rates = DiversityRates(0.3, 0.2)
        sel = stream_lists(w.layout, [(84, "sbpu", 4, k) for k in range(5)])
        for tied, copy in ((GlobalHistory(w, prev, prev, round=4),
                            GlobalHistory(w, prev, P.from_vector(prev.vector, prev), round=4)),
                           (GlobalHistory.bootstrap(w),
                            GlobalHistory(w, P.from_vector(w.vector, w),
                                          P.from_vector(w.vector, w)))):
            assert tied.w_prev2 is tied.w_prev and copy.w_prev2 is not copy.w_prev
            a = mutation._dispatch_matrix(tied, rates, sel)
            b = mutation._dispatch_matrix(copy, rates, sel)
            assert a.tobytes() == b.tobytes()

    def test_branch_table_cached_and_read_only(self):
        r = DiversityRates(0.3, 0.2)
        t = r.table
        assert t is r.table and not t.flags.writeable
        assert t.tolist() == [-2.0 * 0.2, -0.3, 0.0, 0.3, 2.0 * 0.2]
        with pytest.raises(ValueError):
            t[0] = 1.0
        assert r == DiversityRates(0.3, 0.2) and hash(r) == hash(DiversityRates(0.3, 0.2))


def selector_cohort(kind, K):
    """K clients laid out as quad-mc ([[16, 1]]), clf-dp (32-64-10) or one filter."""
    rng = np.random.default_rng(80)
    if kind == "clf-dp":
        objs = [ClassifierObjective(architecture=((32, 64, "relu"), (64, 10, "linear")),
                                    data_x=rng.uniform(size=(4, 32)), data_y=rng.integers(0, 10, 4))
                for _ in range(K)]
    else:
        d = 16 if kind == "quad-mc" else 3
        objs = [QuadraticObjective(matrix=np.eye(d), center=rng.standard_normal(d),
                                   layout=((16, 1),) if kind == "quad-mc" else None)
                for _ in range(K)]
    return Cohort([ClientState(id=k, n_k=1, objective=o, E=1) for k, o in enumerate(objs)])


class TestSelectorRows:
    """_SelectorPlan.rows draws what build_stochastic_list draws layer by layer
    from the seeds.stream generators, with no generator.  A classifier Cohort sets
    glibc's mmap and trim thresholds for the rest of the test process
    (federation.tune_malloc); no result depends on them."""

    @pytest.mark.parametrize("kind, filters", [("quad-mc", 16), ("clf-dp", 76), ("one-filter", 1)])
    def test_block_rows_equal_stream_draws(self, kind, filters):
        cohort = selector_cohort(kind, 3).for_rounds(ROUND_BLOCK + 2)
        plan = _selector_plan(cohort.template.layout)
        assert plan.columns.shape == (3, filters - len(cohort.template.layout), 1)
        for r in range(ROUND_BLOCK - 2, ROUND_BLOCK + 2):   # across a block boundary
            rows = cohort.streams(81, r, ("sbpu", "train"))["sbpu"]
            assert rows.shape == (3, filters) and rows.dtype == np.int8
            np.testing.assert_array_equal(
                rows, stream_lists(cohort.template.layout, [(81, "sbpu", r, k) for k in range(3)]))

    def test_rejected_draw_goes_through_the_generator(self, monkeypatch):
        # a 2000-filter list: numpy rejects and redraws draw 513 of the stream
        # (5, "sbpu", 275, 4), found with seeds.pcg64_raw; its neighbours do not
        plan = _selector_plan(((2000, 1, "weight"),))
        keys = [(5, "sbpu", 275, k) for k in range(3, 6)]
        rng, ref = seeds.stream(*keys[1]), seeds.stream(*keys[1])
        rng.integers(0, plan.columns[0, :, 0])
        ref.bit_generator.advance(1000)
        # the 1999 draws took 2000 32-bit halves, one more than without a rejection
        assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]
        assert rng.bit_generator.state["has_uint32"] == 0
        drawn = []
        selectors = mutation._selectors
        monkeypatch.setattr(mutation, "_selectors",
                            lambda layout, rng: drawn.append(rng) or selectors(layout, rng))
        rows = plan.rows(seeds.pcg64_words([seeds.child_seed(*k) for k in keys]))
        assert len(drawn) == 1
        np.testing.assert_array_equal(rows, stream_lists(plan.layout, keys))


class TestNeighborhoodBound:
    def _tied_history(self, rng, f=6, width=3, scale=1.0):
        w = P.from_arrays([scale * rng.standard_normal((f, width))])
        prev = pair_like(rng, w)
        return GlobalHistory(w, prev, prev, round=4)

    def test_unmutated_model_violates_lower_bound(self):
        h = self._tied_history(np.random.default_rng(10))
        rep = check_neighborhood_bound(h.w_glb, h, alpha=0.2)
        assert rep.dist_sq == 0.0 and rep.lower > 0.0 and not rep.holds

    def test_beta2_half_alpha_hits_lower_bound_exactly(self):
        alpha = 0.2
        rng = np.random.default_rng(11)
        h = self._tied_history(rng, f=8)
        g, gp = P.add_scaled(h.w_glb, -1.0, h.w_prev), P.add_scaled(h.w_glb, -1.0, h.w_prev2)
        w_loc = sbpu_mutate(h.w_glb, g, gp, DiversityRates(alpha, alpha / 2),
                            np.random.default_rng(12))
        rep = check_neighborhood_bound(w_loc, h, alpha)
        assert rep.holds
        assert rep.dist_sq == pytest.approx(rep.lower, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.4])
    def test_compliant_interval_holds(self, alpha):
        rng = np.random.default_rng(13)
        for trial in range(20):
            h = self._tied_history(rng, f=int(rng.integers(1, 12)))
            beta2 = float(rng.uniform(alpha / 2, alpha))
            g, gp = P.add_scaled(h.w_glb, -1.0, h.w_prev), P.add_scaled(h.w_glb, -1.0, h.w_prev2)
            w_loc = sbpu_mutate(h.w_glb, g, gp, DiversityRates(alpha, beta2),
                                np.random.default_rng(trial))
            assert check_neighborhood_bound(w_loc, h, alpha).holds

    def test_mean_perturbation_zero_over_all_shuffles(self):
        rng = np.random.default_rng(14)
        w = P.from_arrays([rng.standard_normal((4, 3))])
        g = pair_like(rng, w)
        gp = pair_like(rng, w)
        rates = DiversityRates(0.7, 0.4)
        total = np.zeros_like(w.vector)
        perms = set(itertools.permutations(stochastic_multiset(4)))
        for perm in perms:
            out = apply_stochastic_lists(w, g, gp, rates, [list(perm)])
            total = total + (out.vector - w.vector)
        assert math.sqrt(P.layer_sq_sums(total[None], w.layout)[0]) / len(perms) < 1e-12

    def test_envelopes_square_their_differences_in_place(self):
        # a (16, 4096) stack: each difference is squared where it is made, so the
        # audit allocates at most one (16, 4096) array beyond its reports (two with
        # layer_sq_sums, which squares a copy), with the same bits; the slack covers
        # the 32 KiB aggregate difference and numpy's 64 KiB broadcast buffer
        rng = np.random.default_rng(16)
        w = P.from_arrays([rng.standard_normal((64, 48)), rng.standard_normal(1024)],
                          ["weight", "bias"])
        h = GlobalHistory(w, pair_like(rng, w), pair_like(rng, w), round=4)
        X = rng.standard_normal((16, 4096))
        tracemalloc.start()
        try:
            reports = mutation._envelopes(X, h, 0.2)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current <= X.nbytes + X.nbytes // 4, peak - current
        delta_sq = P.layer_sq_sums((w.vector - h.w_prev.vector)[None], w.layout)[0]
        assert [r.dist_sq for r in reports] == P.layer_sq_sums(X - w.vector, w.layout)
        assert {r.delta_sq for r in reports} == {delta_sq}

    def test_overflowed_distance_does_not_hold(self):
        h = GlobalHistory.bootstrap(single(0.0, 0.0))
        with np.errstate(over="ignore"):
            rep = check_neighborhood_bound(single(1e200, 0.0), h, alpha=0.2)
        assert rep.dist_sq == math.inf and not rep.holds

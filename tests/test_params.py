import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbpu import params as P

from conftest import layered_params, layered_params_pair, pair_like, random_params


def single(*values):
    return P.from_arrays([np.array([list(values)])])


class TestConstruction:
    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            P.LayeredParams(())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            P.from_arrays([np.array([[np.nan]])])
        with pytest.raises(ValueError):
            P.from_arrays([np.array([[np.inf, 0.0]])])

    def test_bias_layer_single_filter(self):
        P.from_arrays([np.zeros((1, 5))], ["bias"])
        with pytest.raises(ValueError):
            P.from_arrays([np.zeros((2, 5))], ["bias"])

    def test_arrays_read_only(self):
        p = single(1.0, 2.0)
        with pytest.raises(ValueError):
            p.layers[0].filters[0, 0] = 9.0

    def test_layers_built_once_as_views(self):
        p = P.from_arrays([np.arange(6.0).reshape(3, 2), np.ones((1, 4))], ["weight", "bias"])
        assert p.layers is p.layers
        assert [l.kind for l in p.layers] == ["weight", "bias"]
        assert all(np.shares_memory(l.filters, p.vector) for l in p.layers)


class TestAddScaled:
    def test_zero_coefficient(self):
        rng = np.random.default_rng(3)
        base = random_params(rng)
        assert P.add_scaled(base, 0.0, pair_like(rng, base)) == base

    def test_scalar_arithmetic(self):
        assert P.add_scaled(single(1.0), 2.0, single(0.25)) == single(1.5)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        base = random_params(rng)
        delta = pair_like(rng, base)
        out = P.add_scaled(base, -0.7, delta)
        for lb, ld, lo in zip(base.layers, delta.layers, out.layers):
            np.testing.assert_array_equal(lo.filters, lb.filters - 0.7 * ld.filters)

    def test_non_finite_coef_rejected(self):
        p = single(1.0)
        with pytest.raises(ValueError):
            P.add_scaled(p, float("inf"), p)

    def test_shape_mismatch_identifies_layer(self):
        a = P.from_arrays([np.zeros((2, 3)), np.zeros((2, 3))])
        b = P.from_arrays([np.zeros((2, 3)), np.zeros((4, 3))])
        with pytest.raises(P.ShapeMismatchError) as e:
            P.add_scaled(a, 1.0, b)
        assert e.value.layer == 1


class TestSqDistance:
    def test_zero_distance(self):
        p = single(1.0, -2.0)
        assert P.sq_distance(p, p) == 0.0

    def test_pythagorean(self):
        assert P.sq_distance(single(3.0, 4.0), single(0.0, 0.0)) == 25.0

    def test_flat_vector_oracle(self):
        rng = np.random.default_rng(5)
        a = random_params(rng)
        b = pair_like(rng, a)
        flat = float(np.sum((a.vector - b.vector) ** 2))
        assert P.sq_distance(a, b) == pytest.approx(flat, rel=1e-12)

    def test_per_layer_summation_order(self):
        # reference: one np.sum per 2-D layer view, then math.fsum; layers
        # past 128 scalars exercise numpy's pairwise summation blocks
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = random_params(rng, max_filters=70, max_width=70)
            b = pair_like(rng, a)
            per_layer = [float(np.sum((la.filters - lb.filters) ** 2))
                         for la, lb in zip(a.layers, b.layers)]
            assert P.sq_distance(a, b) == math.fsum(per_layer)
            assert P.layer_sq_sums(a.vector[None], a.layout)[0] == math.fsum(float(np.sum(l.filters ** 2))
                                             for l in a.layers)

    def test_row_sums_match_single_rows(self):
        # each row of a (K, d) stack sums as its own 1-D layer slices do
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = random_params(rng, max_filters=70, max_width=70)
            V = rng.standard_normal((int(rng.integers(1, 9)), a.vector.size))
            bounds = np.cumsum([0] + [nf * fl for nf, fl, _ in a.layout])
            want = [math.fsum(float(np.sum(v[lo:hi] ** 2))
                              for lo, hi in zip(bounds, bounds[1:])) for v in V]
            assert P.layer_sq_sums(V, a.layout) == want


class TestProperties:
    @given(layered_params_pair())
    def test_add_scaled_roundtrip(self, pair):
        a, b = pair
        back = P.add_scaled(b, 1.0, P.from_vector(a.vector - b.vector, a))
        for la, lb, lr in zip(a.layers, b.layers, back.layers):
            tol = 1e-12 * np.maximum(np.abs(la.filters), np.abs(lb.filters)) + 1e-300
            assert np.all(np.abs(lr.filters - la.filters) <= tol)

    @given(layered_params_pair())
    def test_sq_distance_symmetric_and_norm_of_diff(self, pair):
        a, b = pair
        assert P.sq_distance(a, b) == P.sq_distance(b, a)
        norm_of_diff = P.layer_sq_sums((a.vector - b.vector)[None], a.layout)[0]
        assert P.sq_distance(a, b) == pytest.approx(norm_of_diff, rel=1e-12, abs=1e-300)


class TestVectorRoundtrip:
    def test_as_from_vector(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        assert P.from_vector(p.vector, p) == p

    def test_from_vector_length_check(self):
        p = single(1.0, 2.0)
        with pytest.raises(P.ShapeMismatchError):
            P.from_vector(np.zeros(3), p)

    def test_as_vector_read_only(self):
        v = single(1.0, 2.0).vector
        with pytest.raises(ValueError):
            v[0] = 9.0

    def test_from_vector_copies_input(self):
        v = np.array([1.0, 2.0])
        p = P.from_vector(v, single(0.0, 0.0))
        v[0] = 9.0
        assert p == single(1.0, 2.0)


class TestJson:
    def test_nested_list_shape(self):
        p = P.from_arrays([np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0]])])
        assert P.to_jsonable(p) == [[[1.0, 2.0], [3.0, 4.0]], [[5.0]]]

    def test_full_precision_roundtrip(self):
        rng = np.random.default_rng(7)
        p = random_params(rng)
        fh = io.StringIO()
        P.write_json(p, fh)
        assert P.from_arrays([np.array(l) for l in json.loads(fh.getvalue())]) == p

    def test_dump_is_valid_json(self):
        p = single(0.1, 0.2)
        fh = io.StringIO()
        P.write_json(p, fh)
        assert json.loads(fh.getvalue()) == P.to_jsonable(p)

    @given(data=st.data())
    def test_write_json_is_the_json_dumps_text(self, data):
        # row-at-a-time text against the whole model's json.dumps, over weight
        # and bias layers and values down to subnormals, -0.0 and up to 1e308
        value = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64),
                          st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308, -1e308,
                                           1.7976931348623157e308]))
        shapes = data.draw(st.lists(st.tuples(st.sampled_from(["weight", "bias"]),
                                              st.integers(1, 5), st.integers(1, 5)),
                                    min_size=1, max_size=4))
        shapes = [(kind, 1 if kind == "bias" else nf, fl) for kind, nf, fl in shapes]
        p = P.from_arrays([np.array(data.draw(st.lists(value, min_size=nf * fl,
                                                       max_size=nf * fl))).reshape(nf, fl)
                           for _, nf, fl in shapes], [kind for kind, _, _ in shapes])
        fh = io.StringIO()
        P.write_json(p, fh)
        assert fh.getvalue() == json.dumps(P.to_jsonable(p))


class TestLayerSqSumsBits:
    """layer_sq_sums against the plain np.sum form, byte for byte."""

    @staticmethod
    def reference(V, layout):
        sq, sums, pos = V ** 2, [], 0
        for nf, fl, _ in layout:
            sums.append(np.sum(sq[:, pos:pos + nf * fl], axis=1).tolist())
            pos += nf * fl
        return [math.fsum(row) for row in zip(*sums)]

    @pytest.mark.parametrize("shapes", [
        [(1, 1), (3, 1)],
        [(7, 1), (8, 1), (9, 1)],
        [(64, 32), (1, 64), (10, 64), (1, 10)],
        [(1, 128), (1, 129), (2, 128), (1, 256)],
        [(3, 1000), (5, 7)],
    ])
    @pytest.mark.parametrize("K", [1, 4, 9])
    def test_matches_reference(self, shapes, K):
        rng = np.random.default_rng([K, len(shapes), shapes[0][1]])
        p = P.from_arrays([np.zeros(s) for s in shapes])
        V = rng.standard_normal((K, p.vector.size)) * rng.uniform(1e-3, 1e3, size=(K, 1))
        got, want = P.layer_sq_sums(V, p.layout), self.reference(V, p.layout)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert np.array([P.layer_sq_sums(row[None], p.layout)[0] for row in V]).tobytes() \
            == np.array(want).tobytes()

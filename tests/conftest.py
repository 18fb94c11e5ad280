import numpy as np
from hypothesis import strategies as st

from sbpu import params as P
from sbpu import seeds
from sbpu.mutation import build_stochastic_list


def random_params(rng, n_layers=None, max_filters=8, max_width=6):
    """A random LayeredParams with small layer shapes."""
    n_layers = n_layers or int(rng.integers(1, 4))
    arrays = [rng.standard_normal((int(rng.integers(1, max_filters + 1)),
                                   int(rng.integers(1, max_width + 1))))
              for _ in range(n_layers)]
    return P.from_arrays(arrays)


def stream_lists(layout, keys):
    """Per key, build_stochastic_list for each layer of layout in order on the
    generator seeds.stream(*key), concatenated: one model's filter selectors."""
    return np.array([np.concatenate([build_stochastic_list(nf, rng) for nf, _, _ in layout])
                     for rng in (seeds.stream(*key) for key in keys)])


def pair_like(rng, p):
    """A second LayeredParams with the same shape as p."""
    return P.from_arrays([rng.standard_normal(l.filters.shape) for l in p.layers])


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False, width=64)


@st.composite
def layered_params(draw, max_layers=3, max_filters=4, max_width=4):
    shapes = draw(st.lists(
        st.tuples(st.integers(1, max_filters), st.integers(1, max_width)),
        min_size=1, max_size=max_layers))
    arrays = []
    for nf, w in shapes:
        vals = draw(st.lists(finite, min_size=nf * w, max_size=nf * w))
        arrays.append(np.array(vals).reshape(nf, w))
    return P.from_arrays(arrays)


@st.composite
def layered_params_pair(draw, **kw):
    a = draw(layered_params(**kw))
    arrays = []
    for l in a.layers:
        vals = draw(st.lists(finite, min_size=l.filters.size, max_size=l.filters.size))
        arrays.append(np.array(vals).reshape(l.filters.shape))
    return a, P.from_arrays(arrays)

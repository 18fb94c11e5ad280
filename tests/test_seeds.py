import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpu import seeds


def loop_fisher_yates(items, rng):
    """The one-draw-per-swap shuffle, kept as the reference."""
    a = np.array(items)
    for i in range(len(a) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        a[i], a[j] = a[j], a[i]
    return a


def test_fisher_yates_matches_loop_oracle():
    # same output, dtype and generator state after the shuffle, for 1-130
    # entries; odd lists start from a generator holding a buffered uint32
    src = np.random.default_rng(0)
    for n in range(1, 131):
        for trial in range(8):
            items = src.integers(-2, 3, n).tolist()
            if trial % 4 == 3:
                items = src.standard_normal(n)
            a, b = seeds.stream(3, "fy", n, trial), seeds.stream(3, "fy", n, trial)
            if n % 2:
                a.integers(0, 7, dtype=np.uint32)
                b.integers(0, 7, dtype=np.uint32)
            want = loop_fisher_yates(items, a)
            got = seeds.fisher_yates(items, b)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
            assert b.bit_generator.state == a.bit_generator.state


def test_fisher_yates_copies_input():
    items = np.arange(10)
    out = seeds.fisher_yates(items, seeds.stream(4, "fy"))
    assert sorted(out.tolist()) == list(range(10))
    np.testing.assert_array_equal(items, np.arange(10))



@pytest.mark.parametrize("keys", [(1, True), (1, "train", 2.0), (1.5,), (1, None)])
def test_stream_rejects_bool_float_and_other_keys(keys):
    with pytest.raises(TypeError, match="ints or strings"):
        seeds.stream(*keys)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
@example([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])   # one word below 2**32, two from 2**32 on
def test_pcg64_words_match_seed_sequence(child_seeds):
    got = seeds.pcg64_words(child_seeds)
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    np.testing.assert_array_equal(
        got, [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in child_seeds])


@pytest.mark.parametrize("keys", [(3, "sbpu", 0, 0), (3, "train", 64, 7), (2 ** 64 - 1, "defense", 1, 2)])
def test_from_words_gives_the_stream_generator(keys):
    rng = seeds.from_words(seeds.pcg64_words([seeds.child_seed(*keys)])[0])
    ref = seeds.stream(*keys)
    assert rng.bit_generator.state == ref.bit_generator.state
    bounds = np.arange(17, 1, -1)
    np.testing.assert_array_equal(rng.integers(0, bounds), ref.integers(0, bounds))
    np.testing.assert_array_equal(rng.standard_normal(9), ref.standard_normal(9))
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=12), st.integers(0, 80))
def test_pcg64_raw_matches_random_raw(child_seeds, n):
    words = seeds.pcg64_words(child_seeds)
    got = seeds.pcg64_raw(words, n)
    assert got.dtype == np.uint64 and got.shape == (len(child_seeds), n)
    for w, row in zip(words, got):
        np.testing.assert_array_equal(row, seeds.from_words(w).bit_generator.random_raw(n))


@pytest.mark.parametrize("word", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_pcg64_raw_carries_at_the_word_edges(word):
    words = np.full((1, 4), word, dtype=np.uint64)
    np.testing.assert_array_equal(seeds.pcg64_raw(words, 5)[0],
                                  seeds.from_words(words[0]).bit_generator.random_raw(5))


class TestLemire:
    """seeds.lemire against Generator.integers on fresh from_words generators:
    a row it does not flag holds what integers draws, and every row where
    numpy rejected a draw is flagged."""

    @staticmethod
    def _words(*keys, rows=40):
        return seeds.pcg64_words([seeds.child_seed(*keys, k) for k in range(rows)])

    @pytest.mark.parametrize("n", [1, 2, 3, 256, 2 ** 31 + 1, 2 ** 32])
    @pytest.mark.parametrize("count", [1, 7, 160])   # odd counts leave a half unread
    def test_unflagged_rows_match_integers(self, n, count):
        words = self._words(9, "lemire", n, count)
        raw = np.array([seeds.from_words(w).bit_generator.random_raw(-(-count // 2))
                        for w in words])
        got, redo = seeds.lemire(raw, np.uint64(n), count)
        assert got.dtype == np.int64 and got.shape == (40, count) and redo.shape == (40,)
        differ = [not np.array_equal(row, seeds.from_words(w).integers(0, n, count))
                  for w, row in zip(words, got)]
        assert not any(d and not r for d, r in zip(differ, redo))
        if n == 2 ** 31 + 1:   # numpy rejects about half the draws: the fallback matters
            assert any(differ)
        if n <= 256:
            assert not redo.any()

    @pytest.mark.parametrize("n, b, E", [(256, 32, 5), (100, 7, 3), (1000, 33, 2), (3, 5, 4),
                                         (1, 4, 2), (2 ** 31 + 1, 3, 3)])
    def test_one_raw_draw_gives_the_E_calls(self, n, b, E):
        # the generator's 32-bit half buffer carries across calls, so E calls of
        # size b, one call of size (E, b) and one random_raw call draw the same
        for w in self._words(10, "batches", n, b, E):
            calls, one = seeds.from_words(w), seeds.from_words(w)
            each = np.array([calls.integers(0, n, b) for _ in range(E)])
            np.testing.assert_array_equal(one.integers(0, n, (E, b)), each)
            assert one.bit_generator.state == calls.bit_generator.state
            raw = seeds.from_words(w).bit_generator.random_raw(-(-E * b // 2))
            got, redo = seeds.lemire(raw[None], np.uint64(n), E * b)
            assert redo[0] or np.array_equal(got.reshape(E, b), each)

import itertools

import numpy as np
import pytest

from dircp.num import _merge_exchange, canonical_sum

from _oracles import canonical_sum_sort


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mixed_values(rng, shape):
    """Normals with signed zeros, 1.0, subnormals and values repeated across agents."""
    x = rng.normal(size=shape)
    pick = rng.uniform(size=shape)
    x[pick < 0.15] = 0.0
    x[(pick >= 0.15) & (pick < 0.3)] = -0.0
    x[(pick >= 0.3) & (pick < 0.4)] = 1.0
    tiny = (pick >= 0.4) & (pick < 0.5)
    x[tiny] = rng.choice([5e-324, -5e-324, 1e-310, -2.5e-320], size=int(tiny.sum()))
    repeat = (pick >= 0.5) & (pick < 0.6)
    x[repeat] = rng.choice([0.25, -3.0, 0.1 + 0.2], size=int(repeat.sum()))
    return x


class TestCanonicalSum:
    @pytest.mark.parametrize("n", range(1, 40))
    def test_matches_sort_then_sum(self, n):
        rng = np.random.default_rng(n)
        x = mixed_values(rng, (n, 3, 5, 4))
        for arr, axis in [(x, 0),                                            # agents first
                          (np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1),  # agents last
                          (np.asfortranarray(x), 0),                         # agents innermost
                          (np.moveaxis(x, 0, 2), 2)]:                        # a strided view
            assert same_bytes(canonical_sum(arr, axis), canonical_sum_sort(arr, axis))

    @pytest.mark.parametrize("axis", [0, -1])
    def test_all_negative_zero_column_sums_to_positive_zero(self, axis):
        for n in range(1, 40):
            x = np.full((n, 6), -0.0) if axis == 0 else np.full((6, n), -0.0)
            got = canonical_sum(x, axis)
            assert same_bytes(got, canonical_sum_sort(x, axis))
            assert not np.signbit(got).any()

    def test_input_left_unchanged(self):
        x = mixed_values(np.random.default_rng(0), (9, 7))
        before = x.copy()
        canonical_sum(x, 0)
        assert same_bytes(x, before)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_network_sorts_every_zero_one_input(self, n):
        # The 0-1 principle: a comparator network that sorts every 0-1 sequence
        # sorts every sequence.
        pairs = _merge_exchange(n)
        assert all(0 <= i < j < n for i, j in pairs)
        for bits in itertools.product((0, 1), repeat=n):
            v = list(bits)
            for i, j in pairs:
                v[i], v[j] = min(v[i], v[j]), max(v[i], v[j])
            assert v == sorted(v)

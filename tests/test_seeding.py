"""Batched seed derivation: ``rngs_for`` against ``rng_for``, draw for draw."""

import numpy as np
import pytest

from densecrop.errors import InvariantViolation
from densecrop.seeding import rng_for, rngs_for, stable_int

WORD_MAX = 2**32 - 1


def random_words(rng, shape):
    """32-bit words with the edge values 0 and 2**32 - 1 and small values
    over-represented next to uniform ones."""
    pick = rng.integers(0, 4, shape)
    uniform = rng.integers(0, WORD_MAX, shape, endpoint=True)
    small = rng.integers(0, 4096, shape)
    return np.choose(pick, [np.zeros(shape, np.int64), np.full(shape, WORD_MAX), small, uniform])


def random_prefix(rng, n):
    """Prefix parts of every kind ``stable_int`` takes: ids, edge words,
    words past 32 bits (masked) and strings (crc32)."""
    kinds = [
        lambda: int(rng.integers(0, 1000)),
        lambda: 0,
        lambda: WORD_MAX,
        lambda: int(rng.integers(0, 2**40)),
        lambda: f"purpose-{int(rng.integers(0, 50))}",
    ]
    return [kinds[int(rng.integers(0, len(kinds)))]() for _ in range(n)]


def draws(generators, size=3):
    return np.array([g.normal(0.0, 1.0, size) for g in generators]).reshape(-1, size)


class TestRngsFor:
    def test_equals_rng_for_on_100k_contexts(self):
        rng = np.random.default_rng(20240611)
        contexts = 0
        while contexts < 100_000:
            parts = int(rng.integers(1, 9))
            prefix_len = int(rng.integers(0, parts + 1))
            prefix = random_prefix(rng, prefix_len)
            rows = random_words(rng, (int(rng.integers(1, 200)), parts - prefix_len))
            got = draws(rngs_for(prefix, rows))
            want = draws(rng_for(*prefix, *row) for row in rows.tolist())
            assert np.array_equal(got, want), (prefix, rows)
            contexts += len(rows)

    def test_edge_words_in_every_position(self):
        for parts in range(1, 9):
            for value in (0, WORD_MAX):
                rows = np.full((parts, parts), 7, dtype=np.int64)
                np.fill_diagonal(rows, value)
                got = draws(rngs_for([], rows), size=5)
                want = draws((rng_for(*row) for row in rows.tolist()), size=5)
                assert np.array_equal(got, want)

    def test_string_prefix_goes_through_stable_int(self):
        rows = np.array([[1, 2], [3, 4]])
        got = draws(rngs_for(["payload-obs", 5], rows))
        same = draws(rngs_for([stable_int("payload-obs"), 5], rows))
        assert np.array_equal(got, same)

    def test_prefix_moved_into_leading_row_columns(self):
        # Batched proposals and features seed rows that differ in their
        # leading parts (image ids, scene seeds) in one call: the prefix
        # parts, as stable_int words, become the first row columns.
        rng = np.random.default_rng(11)
        for trial in range(300):
            prefix = random_prefix(rng, int(rng.integers(1, 5)))
            if trial % 3 == 0:
                prefix[-1] = f"img-{trial}:crop0"  # a string id, as crop children have
            rows = random_words(rng, (int(rng.integers(1, 40)), int(rng.integers(0, 5))))
            words = np.array([stable_int(p) for p in prefix], dtype=np.int64)
            moved = np.concatenate([np.tile(words, (len(rows), 1)), rows], axis=1)
            got = draws(rngs_for((), moved), size=4)
            assert np.array_equal(got, draws(rngs_for(prefix, rows), size=4))
            want = draws((rng_for(*prefix, *row) for row in rows.tolist()), size=4)
            assert np.array_equal(got, want)

    def test_zero_rows(self):
        assert rngs_for([1, "payload-obs"], np.zeros((0, 4), dtype=np.int64)) == []

    @pytest.mark.parametrize("value", [2**32, 2**40, -1])
    def test_row_part_outside_one_word_raises(self, value):
        rows = np.array([[1, 2], [3, value]], dtype=np.int64)
        with pytest.raises(InvariantViolation, match="32-bit"):
            rngs_for([1], rows)

    def test_non_integer_rows_raise(self):
        with pytest.raises(InvariantViolation):
            rngs_for([1], np.array([[1.5, 2.0]]))

    def test_rows_must_be_2d(self):
        with pytest.raises(InvariantViolation):
            rngs_for([1], np.array([1, 2, 3]))


class TestIntParts:
    def test_only_the_low_32_bits_of_an_int_part_seed(self):
        # Training's augment seeds are 64-bit sha256 prefixes; rng_for masks
        # them, which is what lets one rngs_for row carry each of them.
        from densecrop.teacher import _aug_seed

        rng = np.random.default_rng(7)
        seeds = [_aug_seed(1, tag, 42, "img") for tag in ("teacher-weak", "student-strong")]
        seeds += rng.integers(2**32, 2**63, 50).tolist() + [2**64 - 1, 2**32]
        assert any(s > WORD_MAX for s in seeds[:2])
        for seed in seeds:
            for tag in ("weak", "strong"):
                full, low = rng_for(seed, tag), rng_for(seed & WORD_MAX, tag)
                assert np.array_equal(full.normal(0.0, 1.0, 4), low.normal(0.0, 1.0, 4))
                assert full.random() == low.random()

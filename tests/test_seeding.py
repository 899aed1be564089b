"""Batched seed derivation: ``rngs_for`` and ``normals_for`` against
``rng_for``, draw for draw."""

import tracemalloc

import numpy as np
import pytest

from densecrop import seeding
from densecrop.errors import InvariantViolation
from densecrop.seeding import StreamDecoder, normals_for, rng_for, rngs_for, stable_int

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

    def test_seed_words_memory_does_not_copy_constants_per_row(self):
        # 3400 rows of 6 words, the payload-noise rows of a 128-image
        # inference chunk. Repeating each step's hash constants over the
        # rows held two (7, 4, 3400) uint32 arrays and peaked at 1157 KiB
        # (348 bytes a row); broadcast, the peak is about 124 bytes a row.
        rows = random_words(np.random.default_rng(47), (3400, 6))
        seeding._seed_words([], rows)
        tracemalloc.start()
        try:
            seeding._seed_words([], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * len(rows)


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


class TestStableInt:
    @pytest.mark.parametrize(
        "value, word",
        [
            (np.int64(5), 5),
            (np.uint32(WORD_MAX), WORD_MAX),
            (np.int64(-1), WORD_MAX),
            (np.uint64(2**40 + 3), 3),
            (np.int8(7), 7),
            (np.bool_(True), 1),
            (np.bool_(False), 0),
            (True, 1),
            (2**32 + 9, 9),
            (-1, WORD_MAX),
        ],
    )
    def test_ints_and_bools_map_to_their_low_word(self, value, word):
        # numpy scalars map as the Python ints they hold, not by repr
        assert stable_int(value) == word == stable_int(int(value))

    def test_numpy_int_seed_seeds_as_the_python_int(self):
        assert rng_for(np.int64(7), "split").random() == rng_for(7, "split").random()


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def count_slow_rows(monkeypatch):
    """Record how many generators each ``normals_for`` call builds from
    its seed words: one per row outside the ziggurat's fast path."""
    calls = []
    generators = seeding._generators

    def counting(words):
        calls.append(len(words))
        return generators(words)

    monkeypatch.setattr(seeding, "_generators", counting)
    return calls


class TestNormalsFor:
    @pytest.mark.parametrize("k", [1, 5, 13])
    def test_equals_rng_for_standard_normal(self, k, monkeypatch):
        slow = count_slow_rows(monkeypatch)
        rng = np.random.default_rng(20261019 + k)
        contexts = 0
        while contexts < 20_000:
            # 1..8 parts in all: fewer and more than the pool's four words
            parts = int(rng.integers(1, 9))
            prefix = random_prefix(rng, int(rng.integers(0, parts + 1)))
            rows = random_words(rng, (int(rng.integers(1, 400)), parts - len(prefix)))
            got = normals_for(prefix, rows, k)
            assert got.shape == (len(rows), k) and got.dtype == np.float64
            want = np.array([rng_for(*prefix, *row).standard_normal(k) for row in rows.tolist()])
            assert np.array_equal(bits(got), bits(want.reshape(-1, k))), (prefix, rows)
            contexts += len(rows)
        # some rows left the fast path and were redrawn whole, not all did
        assert 0 < sum(slow) < contexts

    def test_zero_rows(self):
        for width in (0, 3, 6):
            got = normals_for([1, "payload-obs"], np.zeros((0, width), dtype=np.int64), 5)
            assert got.shape == (0, 5) and got.dtype == np.float64

    def test_prefix_moved_into_leading_row_columns(self):
        rng = np.random.default_rng(12)
        for trial in range(100):
            prefix = random_prefix(rng, int(rng.integers(1, 5)))
            if trial % 3 == 0:
                prefix[-1] = f"img-{trial}:crop0"
            rows = random_words(rng, (int(rng.integers(1, 200)), int(rng.integers(0, 5))))
            words = np.array([stable_int(p) for p in prefix], dtype=np.int64)
            moved = np.concatenate([np.tile(words, (len(rows), 1)), rows], axis=1)
            got = normals_for((), moved, 4)
            assert np.array_equal(bits(got), bits(normals_for(prefix, rows, 4)))

    def test_rows_are_checked_as_rngs_for_checks_them(self):
        with pytest.raises(InvariantViolation, match="32-bit"):
            normals_for([1], np.array([[1, 2**32]]), 3)
        with pytest.raises(InvariantViolation):
            normals_for([1], np.array([1, 2, 3]), 3)


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


class TestZigguratTables:
    """The committed tables against numpy's own ``standard_normal``: a
    PCG64 whose next output is a chosen uint64 shows how numpy maps it."""

    INC = 0x5851F42D4C957F2D14057B7EF767814F

    def primed(self, output: int):
        """A generator whose next PCG64 output is ``output``, and the state
        that step leaves: XSL-RR of state (high 0, low ``output``) is
        ``output`` itself."""
        bit_generator = np.random.PCG64()
        pre = (output - self.INC) * pow(_PCG_MULT, -1, 2**128) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": pre, "inc": self.INC},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return np.random.Generator(bit_generator), output

    def takes_one_output(self, idx: int, rabs: int) -> bool:
        generator, post = self.primed(rabs << 9 | idx)
        generator.standard_normal()
        return generator.bit_generator.state["state"]["state"] == post

    def test_wi_is_the_draw_of_magnitude_one(self):
        for idx in range(256):
            generator, _ = self.primed(1 << 9 | idx)
            assert generator.standard_normal() == seeding._ZIG_WI[idx]
            generator, _ = self.primed(1 << 9 | 1 << 8 | idx)  # sign bit set
            assert generator.standard_normal() == -seeding._ZIG_WI[idx]

    def test_ki_is_the_fast_path_bound(self):
        assert seeding._ZIG_KI[1] == 0
        for idx, ki in enumerate(seeding._ZIG_KI.tolist()):
            assert 0 <= ki < 2**52
            if ki > 0:
                assert self.takes_one_output(idx, ki - 1)
            assert not self.takes_one_output(idx, ki)


class TestStreamDecoder:
    def test_calls_equal_each_rows_generator(self):
        # random passes of random calls, repeated a random number of times
        # on a random subset of rows, against one generator per row making
        # the same calls; long normal runs leave the fast path
        rng = np.random.default_rng(20261020)
        for trial in range(60):
            n = int(rng.integers(1, 25))
            rows = random_words(rng, (n, int(rng.integers(1, 4))))
            decoder = StreamDecoder(["decoder", trial], rows, int(rng.integers(1, 60)))
            generators = [rng_for("decoder", trial, *row) for row in rows.tolist()]
            for _ in range(6):
                subset = np.flatnonzero(rng.random(n) < 0.7)
                repeats = rng.integers(0, 4, len(subset))
                calls = [random_call(rng) for _ in range(int(rng.integers(1, 5)))]
                got = decoder.draw(subset, repeats, calls)
                want = [[] for _ in calls]
                for i, r in zip(subset.tolist(), repeats.tolist()):
                    for _ in range(r):
                        for c, (name, a, b) in enumerate(calls):
                            call = getattr(generators[i], name)
                            want[c].append(call(0.0, a, b) if name == "normal" else call(a, b))
                for values, expected, (name, _, b) in zip(got, want, calls):
                    shape = (int(repeats.sum()),) if name != "normal" or b is None else (int(repeats.sum()), b)
                    expected = np.array(expected, dtype=values.dtype).reshape(shape)
                    assert values.shape == shape and values.tobytes() == expected.tobytes(), (trial, calls)

    @pytest.mark.parametrize(
        "span, calls",
        [
            # 2**32 mod span is 2**26: one half in 64 is rejected, and the
            # few rows that draw again from their first slot are not
            # consecutive
            (2**32 - 2**26, lambda span: [("integers", 7, 7 + span)]),
            # a quarter of the halves are rejected, in either slot
            (3 * 2**30, lambda span: [("integers", 7, 7 + span), ("uniform", -1.0, 2.0), ("integers", 0, span)]),
        ],
    )
    @pytest.mark.parametrize("repeats", [1, 3])
    def test_rejections_in_some_rows(self, span, calls, repeats):
        calls = calls(span)
        rows = random_words(np.random.default_rng(5), (256, 2))
        got = StreamDecoder(["reject"], rows, 4).draw(np.arange(256), repeats, calls)
        generators = [rng_for("reject", *row) for row in rows.tolist()]
        want = [[] for _ in calls]
        for g in generators:
            for _ in range(repeats):
                for values, (name, a, b) in zip(want, calls):
                    values.append(getattr(g, name)(a, b))
        for values, expected in zip(got, want):
            assert values.tobytes() == np.array(expected, dtype=values.dtype).tobytes()

    def test_lemire_rejection_takes_the_buffered_half(self):
        # an output whose low half is 0 draws 0 * 3, whose low word 0 is
        # below Lemire's threshold 2**32 % 3 = 1: numpy rejects it and
        # takes the high half that PCG64 buffered
        high = 0x9E3779B9
        primed = TestZigguratTables().primed
        generator, _ = primed(high << 32)
        source, _ = primed(high << 32)
        decoder = StreamDecoder([], np.zeros((1, 1), dtype=np.int64), 8)
        decoder._raw[0] = source.bit_generator.random_raw(8)
        row = np.array([0])
        want = [int(generator.integers(0, 3)) for _ in range(3)]
        (got,) = decoder.draw(row, 3, [("integers", 0, 3)])
        assert got.tolist() == want and want[0] == high * 3 >> 32
        # the third draw took the second output's buffered high half, so
        # the next output is the third
        (uniform,) = decoder.draw(row, 1, [("uniform", 0.0, 1.0)])
        assert uniform[0] == generator.uniform()

    @pytest.mark.parametrize("high", [2**32 + 1, 0])
    def test_an_integers_range_of_no_values_or_past_one_half_raises(self, high):
        decoder = StreamDecoder([1], np.zeros((2, 1), dtype=np.int64), 4)
        with pytest.raises(InvariantViolation, match="2\\*\\*32"):
            decoder.draw(np.arange(2), 1, [("integers", 0, high)])


def random_call(rng) -> tuple:
    """A ``uniform``, ``normal`` or ``integers`` call: any bounds, scales
    with 0, normal runs up to 40 long, and integers ranges from one value
    up to 2**32 - 1 values, Lemire's widest on one half."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return ("uniform", *sorted(rng.normal(0.0, 100.0, 2).tolist()))
    if kind == 1:
        return ("normal", float(rng.choice([0.0, 1.0, 3.7])), None)
    if kind == 2:
        return ("normal", 2.5, int(rng.integers(1, 40)))
    span = [1, 2, 3, 7, 2**31, 2**32 - 1, int(rng.integers(1, 2**32))][int(rng.integers(0, 7))]
    low = int(rng.integers(-1000, 1000))
    return ("integers", low, low + span)

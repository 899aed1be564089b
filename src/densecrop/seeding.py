"""Deterministic rng derivation.

All randomness in the toolkit flows from a single root seed. Instead of
threading generator state through the pipeline, each consumer derives a
fresh generator from (root seed, purpose, context...) so that runs are
bit-reproducible, resumable mid-stream, and independent of worker count.

:func:`rng_for` derives one generator through numpy's ``SeedSequence``.
:func:`rngs_for` derives one generator per row of a context array with a
shared prefix, bit for bit as :func:`rng_for` would, by running the
``SeedSequence`` hashing as uint32 array operations over all rows at once.
Its precondition is that every part is one 32-bit word, which is what
numpy turns an int in [0, 2**32) into; :func:`stable_int` guarantees it
for prefix parts, and row entries outside that range raise.

Because :func:`stable_int` keeps only the low 32 bits of an int, a
wider seed such as the trainer's 64-bit augmentation seeds seeds
``rng_for`` exactly as its low word does. That is what lets training
derive every ``augment`` generator of an iteration, one per view and
augmentation tag, in one :func:`rngs_for` call with rows
``(seed & 0xFFFFFFFF, stable_int(tag))``. A prefix part can move into a
leading row column as its :func:`stable_int` word, which is how rows
whose leading parts differ share one call: the toy detector derives the
proposal generators of a chunk of images (rows ``(seed, "proposals",
image id)``) in one call.

:func:`normals_for` draws each row's first ``k`` standard normals without
building its generator, as the toy detector's payload noise needs (rows
``(scene seed, "payload-obs", coordinates)``). It runs PCG64 on (high, low)
uint64 word arrays over all rows and maps each output through the fast
path of numpy's ziggurat, whose tables are committed here. A row with a
draw off that path (about 1.5 % of draws: the tail and the wedges) is
redrawn whole from its own generator, seeded from the words already
derived for it.

:class:`StreamDecoder` makes the ``uniform``, ``normal`` and ``integers``
calls of many rows' generators at once, as the synthetic scenes need
(rows ``(seed, "scene", scene index)``), by decoding each row's raw PCG64
outputs (``random_raw``) the way numpy's ``Generator`` consumes them:
- ``uniform(low, high)`` is ``low + (high - low) * random()``, and
  ``random()`` is an output's top 53 bits times 2**-53;
- ``normal(0.0, scale)`` is ``0.0 + scale * z``, with the standard normal
  ``z`` from one output on the ziggurat's fast path;
- ``integers(low, high)`` over fewer than 2**32 values takes one 32-bit
  half through Lemire's method: the high half that PCG64 buffered from
  the last output an ``integers`` call split, else the low half of a new
  output, whose high half it buffers. A rejected half is followed by the
  next, and a range of one value draws nothing.
A normal off the fast path takes more outputs. numpy draws it: a PCG64
seeded as the row's is ``advance``d to the draw and makes it, and its
next output, found in the row's buffer, shows where the row resumes.

The bits rely on numpy's PCG64, ``random_standard_normal`` and bounded
``integers`` staying as they are; the table test and the decoder tests
in ``tests/test_seeding.py`` and the pinned run digests guard that.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvariantViolation

__all__ = ["stable_int", "rng_for", "rngs_for", "normals_for", "StreamDecoder", "RAW_BLOCK"]

# numpy's SeedSequence constants (O'Neill's seed_seq design, NEP 19).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MAX_PARTS = 64


def _constants(init: int, mult: int, n: int) -> list[int]:
    """The hash constant before each of ``n`` hash steps, then after the
    last: ``init * mult**k`` mod 2**32 for k = 0..n."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return out


def _step_tables() -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) constants of every ``hashmix`` that mixes entropy
    into the pool, grouped into steps of one constant per pool word.

    The constants depend only on how many hashes have run, never on the
    data. Step 0 hashes the first four words into the pool; steps 1..4
    hash pool word ``s`` into every other pool word (word ``s`` itself
    gets an unused 0); each later step hashes one more entropy word into
    all four.
    """
    a = _constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * (_MAX_PARTS - _POOL))
    xor = np.zeros((1 + _POOL + _MAX_PARTS - _POOL, _POOL), dtype=np.uint32)
    mul = np.zeros_like(xor)
    xor[0], mul[0] = a[0:_POOL], a[1 : _POOL + 1]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                xor[1 + src, dst], mul[1 + src, dst] = a[k], a[k + 1]
                k += 1
    for step in range(1 + _POOL, len(xor)):
        xor[step], mul[step] = a[k : k + _POOL], a[k + 1 : k + _POOL + 1]
        k += _POOL
    return xor, mul


_STEP_XOR, _STEP_MUL = _step_tables()
# generate_state(4, uint64) hashes the pool words 0, 1, 2, 3, 0, 1, 2, 3.
_B = _constants(_INIT_B, _MULT_B, 2 * _POOL)
_OUT_XOR = np.array(_B[:-1], dtype=np.uint32)[:, None]
_OUT_MUL = np.array(_B[1:], dtype=np.uint32)[:, None]

# PCG64's 128-bit multiplier as high and low words, and the low word's
# 32-bit limbs; numpy uint64 scalars keep every product in uint64.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_PCG_MULT_L1, _PCG_MULT_L0 = np.uint64(_PCG_MULT >> 32 & 0xFFFFFFFF), np.uint64(_PCG_MULT & 0xFFFFFFFF)


def stable_int(value: int | str | float) -> int:
    """Map an id-like value to a stable non-negative integer across runs:
    an int, or a numpy integer or bool, to its low 32 bits (``np.int64(5)``
    is ``5``), anything else to the crc32 of its ``repr``."""
    if isinstance(value, (int, np.integer, np.bool_)):
        return int(value) & 0xFFFFFFFF
    return zlib.crc32(repr(value).encode("utf-8"))


def rng_for(*parts: int | str | float) -> np.random.Generator:
    """Generator seeded purely by the given parts, in order."""
    return np.random.default_rng([stable_int(p) for p in parts])


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> None:
    """SeedSequence's ``hashmix`` in place, with its constants given."""
    values ^= xor
    values *= mul
    values ^= values >> _SHIFT


def _mix(pool: np.ndarray, hashed: np.ndarray) -> None:
    """SeedSequence's ``mix(pool, hashed)`` into ``pool``; clobbers ``hashed``."""
    pool *= _MIX_L
    hashed *= _MIX_R
    pool -= hashed
    pool ^= pool >> _SHIFT


class _State(ISeedSequence):
    """A seed sequence whose state is already generated: hands PCG64 the
    four uint64 words it asks for, so numpy still does PCG64's own seeding.
    It serves PCG64 alone, which always asks for ``generate_state(4,
    uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seed_words(prefix_parts, rows: np.ndarray) -> np.ndarray:
    """The (R, 4) uint64 ``generate_state(4, uint64)`` words that seed the
    PCG64 of each row's ``rng_for(*prefix_parts, *rows[i])``.

    ``prefix_parts`` go through :func:`stable_int`; ``rows`` is an (R, m)
    integer array whose entries must each be one 32-bit word, in
    [0, 2**32). The ``SeedSequence`` pool mixing and ``generate_state`` run
    once over all rows as uint32 operations on (pool word, row) arrays.
    """
    prefix = [stable_int(p) for p in prefix_parts]
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise InvariantViolation(f"rngs_for rows must be 2-D, got shape {rows.shape}")
    if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() > 0xFFFFFFFF):
        raise InvariantViolation("rngs_for parts must be integer 32-bit words in [0, 2**32)")
    n = len(prefix) + rows.shape[1]
    if n > _MAX_PARTS:
        raise InvariantViolation(f"rngs_for takes at most {_MAX_PARTS} parts, got {n}")
    count = len(rows)
    entropy = np.zeros((max(n, _POOL), count), dtype=np.uint32)
    entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32).reshape(-1, 1)
    entropy[len(prefix) : n] = rows.T
    steps = 1 + _POOL + max(n - _POOL, 0)
    # Each step's (4, 1) constants broadcast over the rows.
    xor, mul = _STEP_XOR[:steps, :, None], _STEP_MUL[:steps, :, None]

    pool = entropy[:_POOL].copy()
    _hashmix(pool, xor[0], mul[0])
    hashed = np.empty_like(pool)
    # Pool word src hashes into every other word; word src keeps its value.
    for src in range(_POOL):
        hashed[:] = pool[src]
        _hashmix(hashed, xor[1 + src], mul[1 + src])
        kept = pool[src].copy()
        _mix(pool, hashed)
        pool[src] = kept
    # Entropy words past the pool's four hash into all four.
    for src in range(_POOL, n):
        hashed[:] = entropy[src]
        _hashmix(hashed, xor[1 + src], mul[1 + src])
        _mix(pool, hashed)

    words = np.concatenate([pool, pool])
    _hashmix(words, _OUT_XOR, _OUT_MUL)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _generators(words: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of (R, 4) :func:`_seed_words`; PCG64 seeds
    itself from them."""
    return [np.random.Generator(np.random.PCG64(_State(w))) for w in words]


def rngs_for(prefix_parts, rows: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of ``rows``: the i-th equals
    ``rng_for(*prefix_parts, *rows[i])`` draw for draw."""
    return _generators(_seed_words(prefix_parts, rows))


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 step on (high, low) uint64 words of the 128-bit states:
    ``state * _PCG_MULT + inc`` mod 2**128."""
    # The high word of lo * _PCG_MULT_LO, from 32-bit limbs.
    a1, a0 = lo >> 32, lo & 0xFFFFFFFF
    p00, p01, p10 = a0 * _PCG_MULT_L0, a0 * _PCG_MULT_L1, a1 * _PCG_MULT_L0
    mid = (p00 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    carry = a1 * _PCG_MULT_L1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _fast_normals(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``random_standard_normal``'s fast path over uint64 outputs: the
    normals, and where a draw leaves the path (the tail and the wedges).
    The path takes 8 index bits, a sign bit and 52 bits of magnitude."""
    idx = (draws & 0xFF).astype(np.intp)
    rabs = (draws >> 9) & 0xFFFFFFFFFFFFF
    z = rabs.astype(np.float64) * _ZIG_WI[idx]
    np.negative(z, out=z, where=((draws >> 8) & 1).astype(bool))
    return z, rabs >= _ZIG_KI[idx]


def _off_path(draws: np.ndarray) -> np.ndarray:
    """Where a standard normal drawn from each output leaves the fast path."""
    return ((draws >> 9) & 0xFFFFFFFFFFFFF) >= _ZIG_KI[(draws & 0xFF).astype(np.intp)]


def normals_for(prefix_parts, rows: np.ndarray, k: int) -> np.ndarray:
    """(R, k) float64 standard normals: row i equals
    ``rng_for(*prefix_parts, *rows[i]).standard_normal(k)`` bit for bit.

    Each row's PCG64 seeds and steps as (high, low) uint64 word arrays
    over all rows at once, and its draws go through the ziggurat's fast
    path. A row with any draw outside the fast path is redrawn whole from
    its own generator, built from the seed words already computed.
    """
    words = _seed_words(prefix_parts, np.asarray(rows))
    seed_hi, seed_lo, init_hi, init_lo = words.T
    # pcg64_set_seed: inc = initseq << 1 | 1; state = 0; step;
    # state += seed; step.
    inc_hi = (init_hi << 1) | (init_lo >> 63)
    inc_lo = (init_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    draws = np.empty((len(words), k), dtype=np.uint64)
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        out, rot = hi ^ lo, hi >> 58
        draws[:, j] = (out >> rot) | (out << ((64 - rot) & 63))
    z, off_path = _fast_normals(draws)
    slow = off_path.any(axis=1)
    if slow.any():
        z[slow] = [rng.standard_normal(k) for rng in _generators(words[slow])]
    return z


# Outputs a StreamDecoder row buffers at a time, at most.
RAW_BLOCK = 4096
# Draws a StreamDecoder decodes at a time, about.
_SEGMENT_SLOTS = 8192
# Outputs searched at a time for where a slow normal left its stream.
_SEARCH = 8
_HALF = np.uint64(0xFFFFFFFF)
_UNIFORM, _NORMAL, _INTEGERS = 0, 1, 2


class _Slots:
    """The draws of one pass over ``calls``, one slot per draw: a uniform
    is one slot, a normal of ``size`` k is k slots, and an ``integers``
    call is one slot unless its range holds one value, which draws
    nothing.

    A slot decodes to ``low + scale * x``: ``x`` is the uniform double of
    a ``uniform`` (``low``, and ``high - low`` as ``scale``) or the
    standard normal of a ``normal`` (``0.0`` and ``scale``). An integers
    slot decodes to ``start`` plus Lemire's draw on ``span`` values.
    """

    def __init__(self, calls):
        table = []
        for c, (name, a, b) in enumerate(calls):
            if name == "uniform":
                table.append((_UNIFORM, float(a), float(b) - float(a), 0, 0, c, 0))
            elif name == "normal":
                table += [(_NORMAL, 0.0, float(a), 0, 0, c, j) for j in range(1 if b is None else b)]
            elif name == "integers":
                # Draws are decoded as float64, exact up to 2**53.
                if not (0 < b - a < 2**32 and -(2**53) <= a and b <= 2**53):
                    raise InvariantViolation(f"integers range {a}..{b} is not 1..2**32 - 1 values within 2**53")
                table += [(_INTEGERS, 0.0, 0.0, a, b - a, c, 0)] if b - a > 1 else []
            else:
                raise InvariantViolation(f"unknown draw {name!r}")
        kind, low, scale, start, span, call, col = zip(*table) if table else [()] * 7
        self.kind = np.array(kind, dtype=np.int8)
        self.low, self.scale = np.array(low, dtype=np.float64), np.array(scale, dtype=np.float64)
        self.start, self.span = np.array(start, dtype=np.int64), np.array(span, dtype=np.uint64)
        # buffered_bounded_lemire_uint32 rejects a half whose product's low
        # word is below 2**32 mod span.
        self.threshold = np.array([2**32 % v if v else 0 for v in span], dtype=np.uint64)
        self.call, self.col = np.array(call, dtype=np.intp), np.array(col, dtype=np.intp)

    def store(self, out: list, rep: np.ndarray, slot: np.ndarray, value: np.ndarray) -> None:
        """Write draws into the call arrays ``out``: draw k is slot
        ``slot[k]`` of pass ``rep[k]`` and worth ``value[k]``."""
        for c, target in enumerate(out):
            mine = self.call[slot] == c
            index = (rep[mine],) if target.ndim == 1 else (rep[mine], self.col[slot[mine]])
            target[index] = value[mine]

    def store_passes(self, out: list, first: int, value: np.ndarray) -> None:
        """Write the (P, slots) draws of passes ``first .. first + P - 1``."""
        for c, target in enumerate(out):
            mine = np.flatnonzero(self.call == c)
            if len(mine):
                target[first : first + len(value)] = value[:, mine] if target.ndim == 2 else value[:, mine[0]]


class StreamDecoder:
    """The draws of many rows' generators, decoded from their raw streams.

    Row ``i`` is the PCG64 stream of ``rng_for(*prefix_parts, *rows[i])``.
    :meth:`draw` returns what each row's generator returns when it makes a
    sequence of ``uniform``, ``normal`` and ``integers`` calls, bit for
    bit, so a caller makes the calls of many rows' generators at once.
    Each row buffers ``outputs`` raw outputs at first, at most
    :data:`RAW_BLOCK`, and extends its buffer from its own bit generator
    when a draw runs past it. Beside each output it keeps whether a
    standard normal that starts there leaves the ziggurat's fast path.
    """

    def __init__(self, prefix_parts, rows: np.ndarray, outputs: int):
        self._words = _seed_words(prefix_parts, rows)
        self._bits = [np.random.PCG64(_State(w)) for w in self._words]
        self._block = max(1, min(int(outputs), RAW_BLOCK))
        count = len(self._bits)
        self._raw = np.empty((count, self._block), dtype=np.uint64)
        for row, bits in enumerate(self._bits):
            self._raw[row] = bits.random_raw(self._block)
        self._slow = _off_path(self._raw)
        # np.flatnonzero(self._slow), made when first needed after a change.
        self._flagged: np.ndarray | None = None
        self._filled = np.full(count, self._block, dtype=np.int64)
        self._pos = np.zeros(count, dtype=np.int64)
        # PCG64's buffered high half (has_uint32, uinteger), per row.
        self._has_half = np.zeros(count, dtype=bool)
        self._half = np.zeros(count, dtype=np.uint64)
        # row -> (generator, index of its next output), for slow normals.
        self._helpers: dict[int, tuple[np.random.Generator, int]] = {}

    def _extend(self, rows: np.ndarray, ends: np.ndarray) -> None:
        """Buffer each row's outputs up to (excluding) its end."""
        short = ends > self._filled[rows]
        if not short.any():
            return
        rows, filled = rows[short], self._filled[rows[short]]
        ends = np.maximum(ends[short], filled + self._block)
        width = self._raw.shape[1]
        if ends.max() > width:
            size = (len(self._raw), max(int(ends.max()), 2 * width))
            raw, slow = np.empty(size, dtype=np.uint64), np.zeros(size, dtype=bool)
            raw[:, :width], slow[:, :width] = self._raw, self._slow
            self._raw, self._slow = raw, slow
        for row, start, end in zip(rows.tolist(), filled.tolist(), ends.tolist()):
            self._raw[row, start:end] = self._bits[row].random_raw(end - start)
            self._slow[row, start:end] = _off_path(self._raw[row, start:end])
        self._filled[rows] = ends
        self._flagged = None

    def draw(self, rows: np.ndarray, repeats, calls) -> list[np.ndarray]:
        """Row ``rows[i]``'s generator making ``calls`` ``repeats[i]`` times
        over, in order: one array per call, of ``sum(repeats)`` draws, row
        after row. A call is ``("uniform", low, high)``, ``("normal",
        scale, size)`` (``normal(0.0, scale, size)``, ``size`` None or an
        int) or ``("integers", low, high)`` (int64, fewer than 2**32
        values). ``rows`` holds distinct row indices.
        """
        slots = _Slots(calls)
        repeats = np.broadcast_to(np.asarray(repeats, dtype=np.int64), len(rows))
        firsts = np.cumsum(repeats) - repeats
        n = int(repeats.sum())
        out = []
        for name, a, b in calls:
            if name == "integers":
                out.append(np.full(n, a, dtype=np.int64))
            else:
                out.append(np.empty(n if name == "uniform" or b is None else (n, b)))
        ends = repeats * len(slots.kind)
        starts = np.zeros(len(rows), dtype=np.int64)
        todo = np.flatnonzero(ends)
        while len(todo):
            # Segments of about _SEGMENT_SLOTS slots bound the memory.
            cuts = np.cumsum(ends[todo] - starts[todo]) // _SEGMENT_SLOTS
            for part in np.split(todo, np.flatnonzero(np.diff(cuts)) + 1):
                starts[part] = self._segment(rows[part], starts[part], ends[part], firsts[part], slots, out)
            todo = todo[starts[todo] < ends[todo]]
        return out

    def _segment(self, rows, starts, ends, firsts, slots: _Slots, out: list) -> np.ndarray:
        """Draw slots ``starts[i] .. ends[i] - 1`` of each row's passes into
        ``out``, and return where each row stopped: at its end, or at an
        ``integers`` slot whose half Lemire's method rejected, which then
        draws again from the next half.

        numpy draws ``uniform(low, high)`` as ``low + (high - low) *
        random()``, with ``random()`` an output's top 53 bits times
        2**-53, and ``normal(0.0, scale)`` as ``0.0 + scale * z``. The
        standard normal ``z`` takes one output on the ziggurat's fast
        path. ``integers`` takes PCG64's ``next_uint32``: the high half
        the row has buffered, else the low half of a new output, whose
        high half it buffers. So with every normal on the fast path, each
        slot's output follows from the row's state and the slots before
        it; a normal off the path takes more outputs and shifts the slots
        after it (:meth:`_slow_events`).
        """
        width = len(slots.kind)
        counts = ends - starts
        first = np.cumsum(counts) - counts
        owner = np.repeat(np.arange(len(rows)), counts)
        t = np.arange(len(owner)) + (starts - first)[owner]
        slot = t % width
        kind = slots.kind[slot]
        # The j-th integers slot of a row takes a buffered half when the row
        # had one and j is even, or had none and j is odd; for j > 0 that
        # half is the previous integers slot's.
        ints = np.flatnonzero(kind == _INTEGERS)
        first_int = np.searchsorted(ints, first)
        j = np.arange(len(ints)) - first_int[owner[ints]]
        buffered = (j + self._has_half[rows][owner[ints]]) % 2 == 1
        takes = np.ones(len(owner), dtype=bool)
        takes[ints[buffered]] = False
        position = _within(np.cumsum(takes) - takes, first, owner)
        regular = np.add.reduceat(takes, first)
        pos = self._pos[rows]
        events, extra, z = self._slow_events(rows, pos, regular, first, owner, position, takes, kind)

        # Each slot's output, after the extra outputs of the slow normals
        # before it in its row.
        delta = np.zeros(len(owner) + 1, dtype=np.int64)
        delta[events + 1] = extra
        position += _within(np.cumsum(delta)[:-1], first, owner)
        position += pos[owner]
        u = self._raw[rows[owner], position]
        value = (u >> 11) * 2.0**-53
        normals = np.flatnonzero(kind == _NORMAL)
        value[normals] = _fast_normals(u[normals])[0]
        value[events] = z
        value *= slots.scale[slot]
        value += slots.low[slot]  # low + scale * x
        u_int = u[ints]
        half = np.where(j > 0, np.roll(u_int, 1) >> 32, self._half[rows][owner[ints]])
        m = np.where(buffered, half, u_int & _HALF) * slots.span[slot[ints]]
        value[ints] = slots.start[slot[ints]] + (m >> 32).astype(np.int64)

        # A row stops at its first rejected half.
        rejected = ints[(m & _HALF) < slots.threshold[slot[ints]]]
        stop = first + counts
        if len(rejected):
            at = np.unique(owner[rejected], return_index=True)
            stop[at[0]] = rejected[at[1]]
            kept = np.flatnonzero(np.arange(len(owner)) < stop[owner])
            slots.store(out, firsts[owner[kept]] + t[kept] // width, slot[kept], value[kept])
        elif (starts == 0).all() and firsts[-1] - firsts[0] == first[-1] // width:
            # Whole passes of rows whose passes follow one another.
            slots.store_passes(out, int(firsts[0]), value.reshape(-1, width))
        else:
            slots.store(out, firsts[owner] + t // width, slot, value)

        # The state of each row that drew all its slots, after its last.
        whole = stop == first + counts
        w = rows[whole]
        self._pos[w] = (pos + regular + np.add.reduceat(delta[1:], first))[whole]
        last_int = (np.searchsorted(ints, first + counts) - 1)[whole]
        n_ints = last_int - first_int[whole] + 1
        has_half = self._has_half[w] ^ (n_ints % 2 == 1)
        # The last integers slot left a half only by taking a new output.
        fresh = has_half & (n_ints > 0)
        self._half[w[fresh]] = u_int[last_int[fresh]] >> 32
        self._has_half[w] = has_half
        # A row stopped at a rejected half consumes it.
        r, row = stop[~whole], rows[~whole]
        took = takes[r]
        self._pos[row] = position[r] + took
        self._half[row[took]] = u[r[took]] >> 32
        self._has_half[row] = took
        return np.where(whole, ends, starts - first + np.minimum(stop, len(owner) - 1))

    def _slow_events(self, rows, pos, regular, first, owner, offset, takes, kind):
        """The slots whose normal leaves the fast path: their indices among
        the segment's slots, the outputs each takes beyond one, and the
        normals numpy draws for them.

        Without such normals, row ``i`` takes outputs ``pos[i]`` to
        ``pos[i] + regular[i] - 1``, slot by slot at their ``offset``.
        Only outputs flagged as off the path can start one, and they are
        few, so each row's flagged outputs are walked in order: after the
        extra outputs of the slow normals so far, a flagged output maps to
        the slot that takes it, an event if that slot is a normal.
        """
        # consumer[out_first[i] + o]: the slot that takes row i's o-th
        # output, without extra outputs.
        out_first = np.cumsum(regular) - regular
        consumer = np.empty(int(regular.sum()), dtype=np.int64)
        taking = np.flatnonzero(takes)
        consumer[out_first[owner[taking]] + offset[taking]] = taking
        normal_at = kind[consumer] == _NORMAL
        # Each row's flagged outputs, up to a few past its regular ones.
        reach = pos + regular + _SEARCH
        self._extend(rows, reach)
        if self._flagged is None:
            self._flagged = np.flatnonzero(self._slow)
        flagged, line = self._flagged, rows * self._raw.shape[1]
        lo, hi = np.searchsorted(flagged, np.stack([line + pos, line + reach])).tolist()
        listed = [x.tolist() for x in (rows, pos, out_first, pos + regular, line)]
        events, extra, z = [], [], []
        for i in np.flatnonzero(np.subtract(hi, lo)).tolist():
            row, start, base, end, row_line = (x[i] for x in listed)
            outputs, k = (flagged[lo[i] : hi[i]] - row_line).tolist(), 0
            at, shift, scanned = start, 0, end + _SEARCH
            while True:
                if k == len(outputs):
                    if end + shift <= scanned:
                        break
                    # Extra outputs moved the row's last slots on: read on.
                    self._extend(np.array([row]), np.array([end + shift + _SEARCH]))
                    outputs += (np.flatnonzero(self._slow[row, scanned : end + shift + _SEARCH]) + scanned).tolist()
                    scanned = end + shift + _SEARCH
                    continue
                p = outputs[k]
                k += 1
                if p >= end + shift:
                    break
                if p < at or not normal_at[base + p - start - shift]:
                    continue
                value, resume = self._slow_normal(row, p)
                events.append(int(consumer[base + p - start - shift]))
                extra.append(resume - p - 1)
                z.append(value)
                shift += resume - p - 1
                at = resume
        return np.array(events, dtype=np.int64), np.array(extra, dtype=np.int64), np.array(z)

    def _slow_normal(self, row: int, pos: int) -> tuple[float, int]:
        """numpy's own normal for the draw that starts at output ``pos``,
        off the fast path, and the index of the output after the ones it
        took: a generator seeded as the row's jumps to ``pos`` (back, for
        a slow normal right after the last one) and draws it; its next
        output, found in the buffer, tells where the row resumes."""
        helper, at = self._helpers.get(row) or (np.random.Generator(np.random.PCG64(_State(self._words[row]))), 0)
        helper.bit_generator.advance(pos - at)
        z = helper.standard_normal()
        following = helper.bit_generator.random_raw()
        start = pos + 1
        while True:
            if start + _SEARCH > self._filled[row]:
                self._extend(np.array([row]), np.array([start + _SEARCH]))
            window = self._raw[row, start : start + _SEARCH].tolist()
            if following in window:
                break
            start += _SEARCH
        resume = start + window.index(following)
        self._helpers[row] = (helper, resume + 1)
        return z, resume


def _within(values: np.ndarray, first: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """A running count over rows laid end to end, restarted at each row:
    ``values`` minus its value at the row's first entry."""
    return values - values[first][owner]


# numpy's ziggurat tables for random_standard_normal (wi_double and
# ki_double of its ziggurat_constants.h), which numpy does not expose.
# tests/test_seeding.py checks every entry against numpy's own draws.
_ZIG_WI = np.array([
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17, 7.454870481247696e-17,
    8.3293668157931e-17, 9.068060405059482e-17, 9.714860076567762e-17, 1.0294750314241019e-16,
    1.0823430288447684e-16, 1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16, 1.3697864842571203e-16,
    1.4034823001242382e-16, 1.4359529452056943e-16, 1.4673208742364422e-16, 1.4976904668391037e-16,
    1.5271515003596198e-16, 1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16, 1.713417017655966e-16,
    1.737754436586486e-16, 1.7616331923000996e-16, 1.7850812316976727e-16, 1.8081240285799152e-16,
    1.830784876482675e-16, 1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16, 1.9803160683128174e-16,
    2.000566877627333e-16, 2.0205791562071654e-16, 2.0403638415480212e-16, 2.0599311887403706e-16,
    2.079290829041402e-16, 2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16, 2.2096924282235318e-16,
    2.2276773304789553e-16, 2.2455202529414355e-16, 2.263226755928568e-16, 2.280802138345017e-16,
    2.2982514554424684e-16, 2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16, 2.4172472704675025e-16,
    2.433845631371103e-16, 2.4503547622614954e-16, 2.466777995232705e-16, 2.4831185421610877e-16,
    2.4993795016204524e-16, 2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16, 2.6112170470670194e-16,
    2.6269412038597256e-16, 2.6426094988411895e-16, 2.658224191608307e-16, 2.6737874806323633e-16,
    2.689301506472616e-16, 2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16, 2.79668929362423e-16,
    2.8118802553450207e-16, 2.827039064324479e-16, 2.842167425218406e-16, 2.8572670107546015e-16,
    2.87233946347098e-16, 2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16, 2.977219284209029e-16,
    2.992130701386013e-16, 3.007028663321331e-16, 3.0219145919680615e-16, 3.036789894211802e-16,
    3.051655962978219e-16, 3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16, 3.1555744654528006e-16,
    3.1704154791040285e-16, 3.1852593363044065e-16, 3.2001073454440114e-16, 3.214960811527447e-16,
    3.2298210370394156e-16, 3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16, 3.3341411523123725e-16,
    3.3491023205407785e-16, 3.364081996918765e-16, 3.37908150518595e-16, 3.394102175841489e-16,
    3.409145347003126e-16, 3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16, 3.5151919672760744e-16,
    3.53046452078274e-16, 3.5457721079774357e-16, 3.5611161930983884e-16, 3.5764982583726505e-16,
    3.59191980508603e-16, 3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16, 3.7011067458828983e-16,
    3.716900855823823e-16, 3.7327490092779435e-16, 3.7486529645684887e-16, 3.7646145133120287e-16,
    3.7806354820089604e-16, 3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16, 3.894607570481926e-16,
    3.9111744183782054e-16, 3.9278189920805415e-16, 3.944543570720877e-16, 3.9613504910761354e-16,
    3.9782421502646826e-16, 3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16, 4.0990718603532664e-16,
    4.1167359738030257e-16, 4.134509635544236e-16, 4.1523960294026883e-16, 4.170398440568316e-16,
    4.1885202607101123e-16, 4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16, 4.3190263810026294e-16,
    4.338240305622791e-16, 4.357609972736849e-16, 4.3771402012585875e-16, 4.3968359995105214e-16,
    4.4167025761542035e-16, 4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16, 4.561035841567422e-16,
    4.582484498109567e-16, 4.604162081631153e-16, 4.626076619547846e-16, 4.648236531543207e-16,
    4.670650656712631e-16, 4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16, 4.835513029411525e-16,
    4.860340511450812e-16, 4.885526531353603e-16, 4.91108629959527e-16, 4.937035980240335e-16,
    4.963392774403987e-16, 4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16, 5.161000557743228e-16,
    5.191394311757699e-16, 5.222416338000234e-16, 5.254101724177597e-16, 5.286488569504945e-16,
    5.3196183453384e-16, 5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16, 5.576748932926576e-16,
    5.617895553555417e-16, 5.660408920082422e-16, 5.704404621291389e-16, 5.750013768919895e-16,
    5.797385945724594e-16, 5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16, 6.197089894581626e-16,
    6.268046963301284e-16, 6.344122407127506e-16, 6.426239659548055e-16, 6.515603317344994e-16,
    6.613827885097664e-16, 6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16, 8.113849337656484e-16,
])
_ZIG_KI = np.array([
    0x0EF33D8025EF6A, 0x00000000000000, 0x0C08BE98FBC6A8, 0x0DA354FABD8142,
    0x0E51F67EC1EEEA, 0x0EB255E9D3F77E, 0x0EEF4B817ECAB9, 0x0F19470AFA44AA,
    0x0F37ED61FFCB18, 0x0F4F469561255C, 0x0F61A5E41BA396, 0x0F707A755396A4,
    0x0F7CB2EC28449A, 0x0F86F10C6357D3, 0x0F8FA6578325DE, 0x0F9724C74DD0DA,
    0x0F9DA907DBF509, 0x0FA360F581FA74, 0x0FA86FDE5B4BF8, 0x0FACF160D354DC,
    0x0FB0FB6718B90F, 0x0FB49F8D5374C6, 0x0FB7EC2366FE77, 0x0FBAECE9A1E50E,
    0x0FBDAB9D040BED, 0x0FC03060FF6C57, 0x0FC2821037A248, 0x0FC4A67AE25BD1,
    0x0FC6A2977AEE31, 0x0FC87AA92896A4, 0x0FCA325E4BDE85, 0x0FCBCCE902231A,
    0x0FCD4D12F839C4, 0x0FCEB54D8FEC99, 0x0FD007BF1DC930, 0x0FD1464DD6C4E6,
    0x0FD272A8E2F450, 0x0FD38E4FF0C91E, 0x0FD49A9990B478, 0x0FD598B8920F53,
    0x0FD689C08E99EC, 0x0FD76EA9C8E832, 0x0FD848547B08E8, 0x0FD9178BAD2C8C,
    0x0FD9DD07A7ADD2, 0x0FDA9970105E8C, 0x0FDB4D5DC02E20, 0x0FDBF95C5BFCD0,
    0x0FDC9DEBB99A7D, 0x0FDD3B8118729D, 0x0FDDD288342F90, 0x0FDE6364369F64,
    0x0FDEEE708D514E, 0x0FDF7401A6B42E, 0x0FDFF46599ED40, 0x0FE06FE4BC24F2,
    0x0FE0E6C225A258, 0x0FE1593C28B84C, 0x0FE1C78CBC3F99, 0x0FE231E9DB1CAA,
    0x0FE29885DA1B91, 0x0FE2FB8FB54186, 0x0FE35B33558D4A, 0x0FE3B799D0002A,
    0x0FE410E99EAD7F, 0x0FE46746D47734, 0x0FE4BAD34C095C, 0x0FE50BAED29524,
    0x0FE559F74EBC78, 0x0FE5A5C8E41212, 0x0FE5EF3E138689, 0x0FE6366FD91078,
    0x0FE67B75C6D578, 0x0FE6BE661E11AA, 0x0FE6FF55E5F4F2, 0x0FE73E5900A702,
    0x0FE77B823E9E39, 0x0FE7B6E37070A2, 0x0FE7F08D774243, 0x0FE8289053F08C,
    0x0FE85EFB35173A, 0x0FE893DC840864, 0x0FE8C741F0CEBC, 0x0FE8F9387D4EF6,
    0x0FE929CC879B1D, 0x0FE95909D388EA, 0x0FE986FB939AA2, 0x0FE9B3AC714866,
    0x0FE9DF2694B6D5, 0x0FEA0973ABE67C, 0x0FEA329CF166A4, 0x0FEA5AAB32952C,
    0x0FEA81A6D5741A, 0x0FEAA797DE1CF0, 0x0FEACC85F3D920, 0x0FEAF07865E63C,
    0x0FEB13762FEC13, 0x0FEB3585FE2A4A, 0x0FEB56AE3162B4, 0x0FEB76F4E284FA,
    0x0FEB965FE62014, 0x0FEBB4F4CF9D7C, 0x0FEBD2B8F449D0, 0x0FEBEFB16E2E3E,
    0x0FEC0BE31EBDE8, 0x0FEC2752B15A15, 0x0FEC42049DAFD3, 0x0FEC5BFD29F196,
    0x0FEC75406CEEF4, 0x0FEC8DD2500CB4, 0x0FECA5B6911F12, 0x0FECBCF0C427FE,
    0x0FECD38454FB15, 0x0FECE97488C8B3, 0x0FECFEC47F91B7, 0x0FED1377358528,
    0x0FED278F844903, 0x0FED3B10242F4C, 0x0FED4DFBAD586E, 0x0FED605498C3DD,
    0x0FED721D414FE8, 0x0FED8357E4A982, 0x0FED9406A42CC8, 0x0FEDA42B85B704,
    0x0FEDB3C8746AB4, 0x0FEDC2DF416652, 0x0FEDD171A46E52, 0x0FEDDF813C8AD3,
    0x0FEDED0F909980, 0x0FEDFA1E0FD414, 0x0FEE06AE124BC4, 0x0FEE12C0D95A06,
    0x0FEE1E579006E0, 0x0FEE29734B6524, 0x0FEE34150AE4BC, 0x0FEE3E3DB89B3C,
    0x0FEE47EE2982F4, 0x0FEE51271DB086, 0x0FEE59E9407F41, 0x0FEE623528B42E,
    0x0FEE6A0B5897F1, 0x0FEE716C3E077A, 0x0FEE7858327B82, 0x0FEE7ECF7B06BA,
    0x0FEE84D2484AB2, 0x0FEE8A60B66343, 0x0FEE8F7ACCC851, 0x0FEE94207E25DA,
    0x0FEE9851A829EA, 0x0FEE9C0E13485C, 0x0FEE9F557273F4, 0x0FEEA22762CCAE,
    0x0FEEA4836B42AC, 0x0FEEA668FC2D71, 0x0FEEA7D76ED6FA, 0x0FEEA8CE04FA0A,
    0x0FEEA94BE8333B, 0x0FEEA950296410, 0x0FEEA8D9C0075E, 0x0FEEA7E7897654,
    0x0FEEA678481D24, 0x0FEEA48AA29E83, 0x0FEEA21D22E4DA, 0x0FEE9F2E352024,
    0x0FEE9BBC26AF2E, 0x0FEE97C524F2E4, 0x0FEE93473C0A3A, 0x0FEE8E40557516,
    0x0FEE88AE369C7A, 0x0FEE828E7F3DFD, 0x0FEE7BDEA7B888, 0x0FEE749BFF37FF,
    0x0FEE6CC3A9BD5E, 0x0FEE64529E007E, 0x0FEE5B45A32888, 0x0FEE51994E57B6,
    0x0FEE474A0006CF, 0x0FEE3C53E12C50, 0x0FEE30B2E02AD8, 0x0FEE2462AD8205,
    0x0FEE175EB83C5A, 0x0FEE09A22A1447, 0x0FEDFB27E349CC, 0x0FEDEBEA76216C,
    0x0FEDDBE422047E, 0x0FEDCB0ECE39D3, 0x0FEDB964042CF4, 0x0FEDA6DCE938C9,
    0x0FED937237E98D, 0x0FED7F1C38A836, 0x0FED69D2B9C02B, 0x0FED538D06AE00,
    0x0FED3C41DEA422, 0x0FED23E76A2FD8, 0x0FED0A732FE644, 0x0FECEFDA07FE34,
    0x0FECD4100EB7B8, 0x0FECB708956EB4, 0x0FEC98B61230C1, 0x0FEC790A0DA978,
    0x0FEC57F50F31FE, 0x0FEC356686C962, 0x0FEC114CB4B335, 0x0FEBEB948E6FD0,
    0x0FEBC429A0B692, 0x0FEB9AF5EE0CDC, 0x0FEB6FE1C98542, 0x0FEB42D3AD1F9E,
    0x0FEB13B00B2D4B, 0x0FEAE2591A02E9, 0x0FEAAEAE992257, 0x0FEA788D8EE326,
    0x0FEA3FCFFD73E5, 0x0FEA044C8DD9F6, 0x0FE9C5D62F563B, 0x0FE9843BA947A4,
    0x0FE93F471D4728, 0x0FE8F6BD76C5D6, 0x0FE8AA5DC4E8E6, 0x0FE859E07AB1EA,
    0x0FE804F690A940, 0x0FE7AB488233C0, 0x0FE74C751F6AA5, 0x0FE6E8102AA202,
    0x0FE67DA0B6ABD8, 0x0FE60C9F38307E, 0x0FE5947338F742, 0x0FE51470977280,
    0x0FE48BD436F458, 0x0FE3F9BFFD1E37, 0x0FE35D35EEB19C, 0x0FE2B5122FE4FE,
    0x0FE20003995557, 0x0FE13C82788314, 0x0FE068C4EE67B0, 0x0FDF82B02B71AA,
    0x0FDE87C57EFEAA, 0x0FDD7509C63BFD, 0x0FDC46E529BF13, 0x0FDAF8F82E0282,
    0x0FD985E1B2BA75, 0x0FD7E6EF48CF04, 0x0FD613ADBD650B, 0x0FD40149E2F012,
    0x0FD1A1A7B4C7AC, 0x0FCEE204761F9E, 0x0FCBA8D85E11B2, 0x0FC7D26ECD2D22,
    0x0FC32B2F1E22ED, 0x0FBD6581C0B83A, 0x0FB606C4005434, 0x0FAC40582A2874,
    0x0F9E971E014598, 0x0F89FA48A41DFC, 0x0F66C5F7F0302C, 0x0F1A5A4B331C4A,
], dtype=np.uint64)

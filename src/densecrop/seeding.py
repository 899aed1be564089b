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
image id)``) and the noise generators of all their proposals (rows
``(scene seed, "payload-obs", coordinates)``) in one call each.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvariantViolation

__all__ = ["stable_int", "rng_for", "rngs_for"]

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


def stable_int(value: int | str | float) -> int:
    """Map an id-like value to a stable non-negative integer across runs."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0xFFFFFFFF
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


def rngs_for(prefix_parts, rows: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of ``rows``: the i-th equals
    ``rng_for(*prefix_parts, *rows[i])`` draw for draw.

    ``prefix_parts`` go through :func:`stable_int`; ``rows`` is an (R, m)
    integer array whose entries must each be one 32-bit word, in
    [0, 2**32). The ``SeedSequence`` pool mixing and ``generate_state`` run
    once over all rows as uint32 operations on (pool word, row) arrays;
    PCG64 then seeds itself from each row's four uint64 words.
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
    xor = np.repeat(_STEP_XOR[:steps, :, None], count, axis=2)
    mul = np.repeat(_STEP_MUL[:steps, :, None], count, axis=2)

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
    state = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_State(w))) for w in state]

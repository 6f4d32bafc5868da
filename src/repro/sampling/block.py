"""One RR-set representation from kernel to pool: the flat block.

An :class:`RRBlock` holds a sequence of RR sets as one int32 ``flat``
array of node ids plus int64 ``offsets`` (``offsets[0] == 0``,
``offsets[-1] == flat.size``): set ``i`` is
``flat[offsets[i]:offsets[i + 1]]``.  The lockstep kernels build one,
samplers return them, backends return one per contiguous run of an
index batch (process workers and network hosts send ``flat,
offsets``), the sharded coordinator concatenates those runs with
:meth:`RRBlock.concat`, and the pool
(:class:`~repro.sampling.rr_collection.RRCollection`) copies them
straight into its own flat buffers.  Per-set arrays exist only as
transient views, by index or by iteration.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges [starts[i], stops[i]) without a Python
    loop; empty ranges contribute nothing."""
    lengths = stops - starts
    # Range i's j-th value lands at out position ends[i-1] + j.
    out = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    out += np.arange(out.size)
    return out


class RRBlock:
    """RR sets as one int32 ``flat`` array plus int64 ``offsets``.

    A block is a value: nothing writes its arrays after it is built, so
    views and slices of it stay valid.  ``len()`` counts sets, indexing
    by an int gives a set's view, a step-1 slice is a sub-block of views
    (offsets rebased) and any other slice a :meth:`take`; iteration
    yields every set's view, and ``+`` concatenates.
    """

    __slots__ = ("flat", "offsets")

    def __init__(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        self.flat = flat
        self.offsets = offsets

    @classmethod
    def from_sizes(cls, flat: np.ndarray, sizes: np.ndarray) -> "RRBlock":
        """The block whose set ``i`` is the next ``sizes[i]`` entries of ``flat``."""
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(flat, offsets)

    @classmethod
    def pack(cls, sets: "Iterable[np.ndarray] | RRBlock") -> "RRBlock":
        """The given sets, in order, packed into one block (a block
        passes through as it is)."""
        if isinstance(sets, RRBlock):
            return sets
        sets = list(sets)
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        flat = np.concatenate(sets) if sets else np.zeros(0, dtype=np.int32)
        return cls.from_sizes(flat.astype(np.int32, copy=False), sizes)

    @classmethod
    def concat(cls, blocks: "Iterable[RRBlock]") -> "RRBlock":
        """The blocks' sets one after another (a single block passes
        through as it is)."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.pack(())
        sizes = np.concatenate([np.diff(b.offsets) for b in blocks])
        return cls.from_sizes(np.concatenate([b.flat for b in blocks]), sizes)

    def take(self, positions) -> "RRBlock":
        """The sets at the (non-negative) ``positions``, in that order:
        one gather of their entries."""
        positions = np.asarray(positions, dtype=np.int64)
        starts, stops = self.offsets[positions], self.offsets[positions + 1]
        return RRBlock.from_sizes(self.flat[concat_ranges(starts, stops)], stops - starts)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, index):
        count = len(self)
        if isinstance(index, slice):
            start, stop, step = index.indices(count)
            if step != 1:
                return self.take(range(start, stop, step))
            stop = max(start, stop)
            lo, hi = self.offsets[start], self.offsets[stop]
            offsets = self.offsets[start : stop + 1]
            return RRBlock(self.flat[lo:hi], offsets - lo if lo else offsets)
        index = int(index)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(f"set index {index} out of range [0, {count})")
        return self.flat[self.offsets[index] : self.offsets[index + 1]]

    def __iter__(self):
        flat, bounds = self.flat, self.offsets.tolist()
        return (flat[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    def __add__(self, other: "RRBlock") -> "RRBlock":
        return RRBlock.concat([self, other])

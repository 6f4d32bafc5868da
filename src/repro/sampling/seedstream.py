"""The counter-based RR stream: every draw is a pure function of its coordinates.

The Stop-and-Stare guarantees are statements about one logical i.i.d.
RR-set stream.  Set ``g`` of a stream owns a 64-bit key, and every
random decision inside the set is a counter-based draw (Salmon et al.,
*Parallel Random Numbers: As Easy as 1, 2, 3*, SC'11)::

    key_g = F(stream_key, g)
    root                       = F(key_g, ROOT)        ROOT = 2**64 - 1
    IC coin of in-edge u -> v  = F(key_g, u * n + v)
    LT hop t                   = F(key_g, t)

``F(key, c)`` is output ``c`` of SplitMix64 seeded at ``key`` (Steele,
Lea & Flood, *Fast Splittable Pseudorandom Number Generators*, OOPSLA
2014), computed by random access: ``mix64(key + (c + 1) * GAMMA)``, with
SplitMix64's published increment and finalizer constants.  The stream
key is the first 64-bit word of the seed's
:class:`numpy.random.SeedSequence` state, so SSA's spawned
verification stream gets a key of its own.

No draw depends on another, so set ``g``'s bytes are a function of
``(seed, g, graph)`` and nothing else:

* **worker count, backend and batching are throughput knobs** — any
  worker may compute any set, in any block, in any visiting order;
* **stream position is one integer** — a pool of sets ``[0, len)`` is
  continued by sampling from index ``len``, which makes spills,
  reattaches and pool suffix truncation exact;
* **coins are keyed on edges, not on positions** — an edge insertion
  moves CSR positions but leaves every other edge's coin alone, which
  is what lets incremental repair reproduce a cold resample.

The IC coin of an edge with weight ``w`` is live iff its top 53 bits
fall below ``ceil(w * 2**53)``: the same probability as comparing a
53-bit uniform double with ``w``, with ``w = 0`` never and ``w = 1``
always live.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SamplingError

#: stream-compatibility token of this derivation.  Pools, spill stamps
#: and sampler states carry it; ``v1`` (per-worker streams) and ``v2``
#: (per-set SeedSequence children, one token per kernel) are refused.
STREAM_ID = "v3"

#: SplitMix64's increment (the golden-ratio odd constant).
GAMMA = np.uint64(0x9E3779B97F4A7C15)
#: SplitMix64's finalizer multipliers (Stafford's Mix13 variant).
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))

#: counter of a set's root draw: ``(ROOT + 1) * GAMMA`` wraps to 0.
ROOT = (1 << 64) - 1

_MASK64 = (1 << 64) - 1
_TWO_53 = float(1 << 53)


def draw(key: int, counter: int) -> int:
    """``F(key, counter)`` on Python ints: the scalar definition that
    :func:`mix64` over :func:`counter_salts` vectorizes."""
    z = (int(key) + (int(counter) + 1) * int(GAMMA)) & _MASK64
    z = ((z ^ (z >> 30)) * int(_M1)) & _MASK64
    z = ((z ^ (z >> 27)) * int(_M2)) & _MASK64
    return z ^ (z >> 31)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a ``uint64`` array; returns it."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def counter_salts(counters: np.ndarray) -> np.ndarray:
    """``(c + 1) * GAMMA`` per counter: add a key and :func:`mix64` to
    get ``F(key, c)``.  Precomputed once per edge for IC coins."""
    salts = np.array(counters, dtype=np.uint64, ndmin=1)
    salts += np.uint64(1)
    salts *= GAMMA
    return salts


def top53(h: np.ndarray) -> np.ndarray:
    """The top 53 bits of each draw, in place (the coin's comparand)."""
    h >>= _S11
    return h


def uniforms(h: np.ndarray) -> np.ndarray:
    """Draws as doubles in ``[0, 1)`` (53-bit resolution)."""
    return top53(h) / _TWO_53


def coin_thresholds(weights: np.ndarray) -> np.ndarray:
    """Integer threshold per edge weight: a coin is live iff
    ``top53(F) < ceil(w * 2**53)``."""
    return np.ceil(np.asarray(weights, dtype=np.float64) * _TWO_53).astype(np.uint64)


def resolve_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce ``seed`` (int | Generator | SeedSequence | None) to the
    root SeedSequence that defines a stream's identity.

    A Generator contributes only its construction SeedSequence — the
    stream is a pure function of the seed derivation, never of how far
    a generator object happens to have been advanced.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        seed_seq = getattr(seed.bit_generator, "seed_seq", None)
        if not isinstance(seed_seq, np.random.SeedSequence):
            raise SamplingError(
                "generator seeds must carry a numpy SeedSequence "
                "(use numpy.random.default_rng); RR streams derive their "
                "key from it"
            )
        return seed_seq
    return np.random.SeedSequence(seed)  # int or None (fresh entropy)


class SeedStream:
    """Random access to the per-set keys of one stream.

    The stream identity is ``(entropy, spawn_key)`` of the root
    SeedSequence; :meth:`keys` returns ``key_g`` for any vector of
    global set indices.
    """

    def __init__(self, seed=None) -> None:
        root = seed.seed_sequence if isinstance(seed, SeedStream) else resolve_seed_sequence(seed)
        self.entropy = int(root.entropy)
        self.spawn_key = tuple(int(k) for k in root.spawn_key)
        self.key = np.uint64(root.generate_state(1, np.uint64)[0])

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        """The root SeedSequence (reconstructs the stream identity)."""
        return np.random.SeedSequence(entropy=self.entropy, spawn_key=self.spawn_key)

    def keys(self, indices) -> np.ndarray:
        """``key_g`` for each global set index ``g`` (``uint64``)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and int(indices.min()) < 0:
            raise SamplingError(
                f"stream indices must be non-negative, got {int(indices.min())}"
            )
        z = counter_salts(indices)
        z += self.key
        return mix64(z)

"""Cross-session pool persistence: spill RR pools to disk, reattach later.

A session pool is the byte-exact prefix of a pure RR stream identified
by ``(graph, model, stream derivation, horizon, seed, stream_id)`` —
note there is **no worker count** in the identity: seed-pure streams are
worker-invariant, so a pool spilled at W=4 reattaches and continues at
W=16.  That makes spilling sound: a pool's length is its stream
position, so saving the sets is saving everything.  Any later process
that builds the *same* stream can serve the saved prefix as cache and
continue sampling from set ``count`` onward as if it had never
restarted.

Files are self-describing ``.npz`` archives: the flat int32 entries, the
int64 offsets, and a JSON header holding the identity stamp and the set
count.  Identity is content-addressed — the file name is a digest of
the stamp — so reattachment never needs session names and a stale file
for a different seed/graph can never be picked up by accident.

**Older spills.**  Headers written before pools carried their own
position also hold a ``sampler_state`` key; the loader ignores it, so
those files reattach unchanged (still ``format_version`` 1).  Stamps
embed the derivation's ``stream_id``.  Files stamped by earlier
derivations — v1 (``(seed, workers)``-derived, with
``workers``/``sampler_kind`` stamp keys) and v2 (one ``stream_id`` per
kernel, e.g. ``"batched-v2"``) — have content addresses no current
stamp produces, so looking one up is a clean cache miss, never silent
mixing.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.exceptions import ReproError
from repro.sampling.block import RRBlock

_FORMAT_VERSION = 1


class PoolStoreError(ReproError):
    """Raised when a spilled pool cannot be written or read."""


def graph_signature(graph) -> str:
    """Content fingerprint of a CSR graph (structure + weights).

    Delegates to :meth:`CSRGraph.fingerprint` when available so the graph
    caches the digest (it is rehashed on every stamp otherwise); the
    fallback keeps duck-typed graph stand-ins working.
    """
    fingerprint = getattr(graph, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint()
    digest = hashlib.sha1()
    digest.update(f"{graph.n}:{graph.m}:".encode())
    for arr in (graph.out_indptr, graph.out_indices, graph.out_weights):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def make_stamp(
    graph,
    *,
    model: str,
    stream: str,
    horizon: int | None,
    seed,
    sampler,
    roots=None,
    graph_version=None,
) -> dict | None:
    """Identity stamp for a context's RR stream, or ``None`` if unspillable.

    Unspillable streams: non-replayable (non-int) seeds, and non-uniform
    root distributions (their benefit vectors are not fingerprinted).

    ``graph_version`` is the mutation-lineage counter of a
    :class:`~repro.dynamic.MutableGraphView` (``None`` means "static
    graph", equivalent to version 0).  It is embedded only when nonzero,
    so every pre-dynamic-graphs spill keeps its content address and
    reattaches cleanly at version 0; for mutated graphs the version keys
    the stamp *in addition to* ``graph_sig``, pinning the spill to one
    lineage position.
    """
    from repro.sampling.roots import UniformRoots

    if roots is not None and not isinstance(roots, UniformRoots):
        return None
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        return None
    # No sampler shape in the identity: seed-pure streams are identical
    # for any worker count, backend and kernel name, so one spill serves
    # them all.  The derivation's stream_id is always embedded, so stamps
    # of earlier derivations never collide with current ones.
    stamp = {
        "graph_sig": graph_signature(graph),
        "model": str(model),
        "stream": str(stream),
        "horizon": None if horizon is None else int(horizon),
        "seed": int(seed),
        "stream_id": sampler.stream_id,
    }
    if graph_version:
        stamp["graph_version"] = int(graph_version)
    return stamp


def stamp_digest(stamp: dict) -> str:
    """Content address of a stamp (stable across key order)."""
    payload = json.dumps(stamp, sort_keys=True).encode()
    return hashlib.sha1(payload).hexdigest()[:20]


class PoolStore:
    """Directory of spilled pools, addressed by stream-identity stamps."""

    def __init__(self, directory: "str | os.PathLike") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, stamp: dict) -> Path:
        return self.directory / f"pool-{stamp_digest(stamp)}.npz"

    # ------------------------------------------------------------------
    # Spill
    # ------------------------------------------------------------------
    def save(self, stamp: dict, collection) -> Path:
        """Write one pool: its sets under its stamp.

        ``collection`` is any object with ``flat_view()`` (an
        :class:`~repro.sampling.rr_collection.RRCollection` or snapshot).
        Writes are atomic (temp file + rename) so a crash mid-spill can
        not leave a half-readable pool behind.  A file already holding a
        *longer* prefix of the same stream is left alone: prefixes of a
        pure stream only ever extend each other, so keeping the longest
        one preserves the most warmup (suffix eviction spills the full
        pool before truncating in memory and relies on this).
        """
        flat, offsets = collection.flat_view()
        existing = self._peek_count(self.path_for(stamp))
        if existing is not None and existing >= len(offsets) - 1:
            return self.path_for(stamp)
        header = {
            "format_version": _FORMAT_VERSION,
            "stamp": stamp,
            "count": len(offsets) - 1,
        }
        header_bytes = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        path = self.path_for(stamp)
        tmp = path.with_suffix(".tmp.npz")
        try:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    header=header_bytes,
                    flat=np.ascontiguousarray(flat, dtype=np.int32),
                    offsets=np.ascontiguousarray(offsets, dtype=np.int64),
                )
            os.replace(tmp, path)
        except OSError as exc:
            raise PoolStoreError(f"cannot spill pool to {path}: {exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def _peek_count(self, path: Path) -> int | None:
        """Set count of an existing spill, or ``None`` if absent/unreadable."""
        if not path.exists():
            return None
        try:
            with np.load(path) as archive:
                header = json.loads(bytes(archive["header"]).decode())
            return int(header["count"])
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return None  # unreadable: let save() overwrite it

    # ------------------------------------------------------------------
    # Reattach
    # ------------------------------------------------------------------
    def load(self, stamp: dict) -> "RRBlock | None":
        """Load the sets of the pool matching ``stamp``.

        Returns ``None`` when no file exists for the stamp.  A file whose
        embedded stamp disagrees with the requested one (hash collision,
        tampering, format drift) raises instead of silently serving the
        wrong stream.
        """
        path = self.path_for(stamp)
        if not path.exists():
            return None
        try:
            with np.load(path) as archive:
                header = json.loads(bytes(archive["header"]).decode())
                flat = archive["flat"]
                offsets = archive["offsets"]
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise PoolStoreError(f"cannot read spilled pool {path}: {exc}") from exc
        if header.get("format_version") != _FORMAT_VERSION:
            raise PoolStoreError(
                f"{path} has format_version {header.get('format_version')!r}; "
                f"this library reads {_FORMAT_VERSION}"
            )
        if header.get("stamp") != stamp:
            raise PoolStoreError(f"{path} holds a different stream than requested")
        if len(offsets) != int(header["count"]) + 1 or offsets[-1] != flat.size:
            raise PoolStoreError(f"{path} is corrupt: offsets do not match count")
        return RRBlock(flat, offsets)

    def files(self) -> "list[Path]":
        """All spilled pools currently on disk."""
        return sorted(self.directory.glob("pool-*.npz"))

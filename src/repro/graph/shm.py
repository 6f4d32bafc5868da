"""Content-addressed CSR graph blobs: shared memory and network transport.

The execution backends ship each registered graph snapshot to each of
their workers exactly once.  The layout is transport-neutral: a :class:`GraphManifest` pins the
six CSR arrays to offsets inside one contiguous byte blob and carries a
**content hash** (SHA-256 of the laid-out blob), so any transport that can
move bytes can move a graph:

* the **process backend** lays each snapshot out in one POSIX
  shared-memory segment (:func:`share_csr_graph`) and hands workers a
  :class:`SharedCSRSpec` — the manifest plus the segment name; workers
  attach zero-copy with :func:`attach_csr_graph`.  The segment is
  unlinked with the last stream registered on its snapshot;
* the **network backend** packs the same layout into plain bytes
  (:func:`pack_csr_graph`), and remote worker hosts receive the blob
  once, verify it against ``manifest.content_hash``, cache it on disk
  *by hash*, and rebuild the graph with :func:`unpack_csr_graph` — a
  host that announces the hash is never sent the blob again.

Both paths produce byte-identical blobs, so the hash is one identity
across transports: a graph served over shm and the same graph served
over TCP are the same content address.

Lifetime rules for the shm path follow the usual shared-memory
discipline: the creator owns the segment and must
:meth:`~multiprocessing.shared_memory.SharedMemory.unlink` it after every
attacher has closed; attachers only ``close()``.  Both sides must keep
their ``SharedMemory`` handle alive for as long as the attached graph is
in use (the graph's arrays borrow the segment's buffer).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import GraphIOError
from repro.graph.digraph import CSRGraph

# CSR fields in layout order; each is (attribute name, dtype).
_FIELDS: tuple[tuple[str, str], ...] = (
    ("out_indptr", "int64"),
    ("out_indices", "int32"),
    ("out_weights", "float64"),
    ("in_indptr", "int64"),
    ("in_indices", "int32"),
    ("in_weights", "float64"),
)

_ALIGNMENT = 8  # every array starts on an 8-byte boundary


@dataclass(frozen=True)
class GraphManifest:
    """Transport-neutral manifest of a CSR graph laid out as one blob.

    ``fields`` maps each CSR array name to its ``(offset, length)`` within
    the blob; dtypes are fixed by the CSR contract (`_FIELDS`).
    ``content_hash`` is the SHA-256 hex digest of the full blob (alignment
    padding included — segments and packed blobs are both zero-padded, so
    the hash is the graph's identity on every transport).
    """

    n: int
    m: int
    fields: tuple[tuple[str, int, int], ...]
    total_bytes: int
    content_hash: str = ""


@dataclass(frozen=True)
class SharedCSRSpec(GraphManifest):
    """A :class:`GraphManifest` bound to a POSIX shared-memory segment."""

    shm_name: str = ""


def _layout(graph: CSRGraph) -> tuple[tuple[tuple[str, int, int], ...], int]:
    """Compute (name, offset, length) for each array plus the total size."""
    fields = []
    cursor = 0
    for name, dtype in _FIELDS:
        arr = getattr(graph, name)
        fields.append((name, cursor, int(arr.size)))
        cursor += int(arr.size) * np.dtype(dtype).itemsize
        cursor = (cursor + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
    return tuple(fields), cursor


def _write_blob(graph: CSRGraph, fields, buf) -> None:
    """Lay ``graph``'s arrays into ``buf`` (a writable buffer) per ``fields``."""
    dtypes = dict(_FIELDS)
    for field_name, offset, length in fields:
        view = np.ndarray((length,), dtype=dtypes[field_name], buffer=buf, offset=offset)
        view[:] = getattr(graph, field_name)
        del view  # drop the exported-buffer reference before returning


def blob_hash(buf) -> str:
    """SHA-256 hex digest of a graph blob (bytes, bytearray, or memoryview)."""
    return hashlib.sha256(buf).hexdigest()


def pack_csr_graph(graph: CSRGraph) -> tuple[bytes, GraphManifest]:
    """Serialize ``graph`` into one contiguous content-addressed blob.

    Returns ``(blob, manifest)``; ``manifest.content_hash`` is the blob's
    SHA-256, so receivers can verify a received or cached copy before
    trusting it (and a host that already holds a hash is not sent the
    blob again — after a mutation only a changed hash forces a transfer).
    """
    fields, total = _layout(graph)
    blob = bytearray(max(total, 1))  # zero-filled, padding included
    _write_blob(graph, fields, blob)
    blob = bytes(blob)
    return blob, GraphManifest(
        n=graph.n,
        m=graph.m,
        fields=fields,
        total_bytes=max(total, 1),
        content_hash=blob_hash(blob),
    )


def unpack_csr_graph(manifest: GraphManifest, buf) -> CSRGraph:
    """Rebuild a :class:`CSRGraph` from a blob per its manifest.

    The graph's arrays are zero-copy views into ``buf`` (read-only when
    ``buf`` is ``bytes``), so the caller must keep the buffer alive for
    the graph's lifetime.  Verification against ``content_hash`` is the
    caller's job (do it once on receipt, not per attach — see
    :func:`verify_blob`).
    """
    if len(buf) < manifest.total_bytes:
        raise GraphIOError(
            f"graph blob is {len(buf)} bytes, manifest expects {manifest.total_bytes}"
        )
    dtypes = dict(_FIELDS)
    arrays = {
        field_name: np.ndarray(
            (length,), dtype=dtypes[field_name], buffer=buf, offset=offset
        )
        for field_name, offset, length in manifest.fields
    }
    # CSRGraph re-validates the arrays, so a corrupt/truncated blob fails
    # loudly here rather than mid-sampling.
    return CSRGraph(manifest.n, **arrays)


def verify_blob(manifest: GraphManifest, buf) -> None:
    """Raise :class:`GraphIOError` unless ``buf`` matches the manifest hash."""
    if not manifest.content_hash:
        raise GraphIOError("manifest carries no content hash to verify against")
    got = blob_hash(buf)
    if got != manifest.content_hash:
        raise GraphIOError(
            f"graph blob hash mismatch: manifest says {manifest.content_hash[:16]}…, "
            f"blob is {got[:16]}… (corrupt transfer or stale cache entry)"
        )


def share_csr_graph(
    graph: CSRGraph, *, name: str | None = None
) -> tuple[shared_memory.SharedMemory, SharedCSRSpec]:
    """Copy ``graph``'s CSR arrays into a new shared-memory segment.

    Returns the owning segment handle (caller must eventually ``close()``
    and ``unlink()`` it) and the manifest to hand to attachers.  The spec's
    ``content_hash`` equals :func:`pack_csr_graph`'s for the same graph —
    one content address across transports.
    """
    fields, total = _layout(graph)
    # SharedMemory refuses zero-length segments; indptr arrays guarantee
    # total > 0 for any n >= 0, but keep the guard for safety.
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1), name=name)
    _write_blob(graph, fields, shm.buf)
    # Hash exactly the manifest's extent: the OS may round the segment up
    # to a page multiple, and those tail bytes are not part of the blob.
    content_hash = blob_hash(shm.buf[: max(total, 1)])
    spec = SharedCSRSpec(
        shm_name=shm.name,
        n=graph.n,
        m=graph.m,
        fields=fields,
        total_bytes=max(total, 1),
        content_hash=content_hash,
    )
    return shm, spec


def attach_csr_graph(
    spec: SharedCSRSpec, *, shm: shared_memory.SharedMemory | None = None
) -> tuple[CSRGraph, shared_memory.SharedMemory]:
    """Reconstruct a :class:`CSRGraph` from a shared-memory manifest.

    The returned graph's arrays are zero-copy views into the segment; the
    returned handle must stay alive (and be ``close()``-d, not unlinked)
    by the caller.  Pass ``shm`` to reuse an already-attached handle.
    """
    if shm is None:
        try:
            shm = shared_memory.SharedMemory(name=spec.shm_name)
        except FileNotFoundError as exc:
            raise GraphIOError(
                f"shared CSR segment {spec.shm_name!r} does not exist "
                "(owner exited or unlinked it?)"
            ) from exc
    if shm.size < spec.total_bytes:
        raise GraphIOError(
            f"shared CSR segment {spec.shm_name!r} is {shm.size} bytes, "
            f"manifest expects {spec.total_bytes}"
        )
    graph = unpack_csr_graph(spec, shm.buf)
    return graph, shm


def close_segment(shm: shared_memory.SharedMemory, *, unlink: bool = False) -> None:
    """Best-effort close (and optional unlink) of a shared segment.

    ``mmap`` refuses to close while graph views still borrow the buffer;
    swallowing the :class:`BufferError` keeps teardown paths (worker exit,
    backend close, test cleanup) from masking the real error, at the cost
    of letting the OS reclaim the mapping at process exit instead.
    """
    try:
        shm.close()
    except BufferError:
        pass
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

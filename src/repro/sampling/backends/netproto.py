"""Wire plumbing for the network execution backend.

Frames are length-prefixed: an 8-byte big-endian payload size followed by
a pickled Python object (numpy index/RR arrays ride pickle's buffer
protocol, so a batch costs one serialization pass, same as the process
backend's pipes).  Pickle makes this a **trusted-cluster** transport —
the coordinator and its workers must live inside one security boundary,
exactly like the rest of a sampling fleet (they already share graph
bytes and code versions).  Do not expose a fleet port to untrusted
networks.

The module also holds the worker-side **blob cache**: graph blobs are
content-addressed (:class:`repro.graph.shm.GraphManifest`), so a worker
host stores each blob under its hash and announces the hashes it holds
when it dials in, so a rejoining host warm-starts from disk.  Cache
entries are verified against the manifest hash on load; a corrupt entry
is dropped, not trusted.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import tempfile

from repro.graph.shm import GraphManifest, blob_hash

_HEADER = struct.Struct(">Q")
# A frame is at most one graph blob or one RR batch; anything past this
# is a corrupt stream, not a bigger graph.
_MAX_FRAME = 1 << 34


class ConnectionClosed(Exception):
    """The peer closed the connection (EOF mid-frame or before one)."""


def send_frame(sock: socket.socket, message: object) -> None:
    """Serialize one message as a length-prefixed pickle frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionClosed("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> object:
    """Read one length-prefixed frame; raises :class:`ConnectionClosed` on EOF."""
    size = _HEADER.unpack(_recv_exact(sock, _HEADER.size))[0]
    if size > _MAX_FRAME:
        raise ConnectionClosed(f"frame of {size} bytes exceeds the protocol maximum")
    return pickle.loads(_recv_exact(sock, size))


# ----------------------------------------------------------------------
# Content-addressed blob cache (worker side)
# ----------------------------------------------------------------------
def blob_cache_path(cache_dir: str, content_hash: str) -> str:
    """Where a blob with this content hash lives inside ``cache_dir``."""
    return os.path.join(cache_dir, f"csr-{content_hash}.blob")


def cached_hashes(cache_dir: str | None) -> list[str]:
    """The content hashes ``cache_dir`` holds blobs for (announced at hello)."""
    names = os.listdir(cache_dir) if cache_dir and os.path.isdir(cache_dir) else []
    return [n[4:-5] for n in names if n.startswith("csr-") and n.endswith(".blob")]


def load_cached_blob(cache_dir: str | None, manifest: GraphManifest) -> "bytes | None":
    """Return the cached blob for ``manifest`` if present and intact.

    A cache entry whose bytes no longer hash to its name (torn write,
    disk corruption) is deleted and ``None`` returned instead of
    sampling over garbage.
    """
    if cache_dir is None or not manifest.content_hash:
        return None
    path = blob_cache_path(cache_dir, manifest.content_hash)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    if blob_hash(blob) != manifest.content_hash:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None
    return blob


def store_cached_blob(cache_dir: str | None, manifest: GraphManifest, blob: bytes) -> None:
    """Atomically store a verified blob under its content hash.

    Write-to-temp + rename keeps concurrent workers on one host safe: a
    reader either sees no entry or a complete one, never a torn write.
    """
    if cache_dir is None or not manifest.content_hash:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = blob_cache_path(cache_dir, manifest.content_hash)
    fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass


def parse_address(text: str) -> "tuple[str, int]":
    """``"HOST:PORT"`` -> ``(host, port)`` with a clear error on junk."""
    host, _, port = str(text).rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)

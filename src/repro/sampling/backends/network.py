"""TCP network execution backend: a crash-proof multi-host sampling fleet.

This is ROADMAP item 1 — "one box, N cores" becomes "N boxes" — built on
the two invariants the earlier PRs established:

* **seed-pure streams** (PR 5): RR set ``g`` is a pure function of
  ``(seed, g)``, so any worker anywhere can compute any set and the
  merged stream has no memory of *which* host computed what;
* **content-addressed graphs** (:mod:`repro.graph.shm`): the graph is
  one hashed blob, so a host receives it at most once and a rejoining
  host warm-starts from its disk cache.

Topology: the coordinator (this backend) listens on a TCP port; worker
hosts dial in (``repro worker --connect HOST:PORT``) and announce the
blob hashes they cache, register under a **heartbeat lease**, and serve
global-index batches of every registered stream over length-prefixed
frames (:mod:`repro.sampling.backends.netproto`).

Fault tolerance falls out of statelessness, through the
dispatch-and-retry loop the process fleet shares
(:class:`~repro.sampling.backends.base.WorkerFleet`):

* hosts may **join and leave mid-stream** — each index batch is cut
  into one contiguous run per live lease, and the merged stream cannot
  tell the difference (byte-invisible churn);
* a crashed or lease-expired host's **in-flight run is resent to a
  survivor byte-identically**; the crash context (lease, label, pid,
  stderr tail for locally spawned hosts) lands in
  :attr:`~repro.sampling.backends.base.ExecutionBackend.fault_log`
  instead of raising, and :attr:`respawns` counts replacement workers;
* only a fleet with **no live hosts after a join grace period**, a
  crash loop that exhausts the retry budget, or a worker *reply*
  reporting an application error, which would recur on any host,
  surfaces a :class:`~repro.exceptions.SamplingError`.

By default the backend is **self-hosting**: ``start`` spawns one
loopback ``repro worker`` subprocess per worker, so ``--backend
network`` works with zero orchestration and exercises the full TCP +
blob + lease stack.  Pass ``spawn=0`` (CLI:
``--hosts HOST:PORT,min=K``) to instead listen for externally started
worker hosts.  The transport trusts its peers (pickle frames — see
:mod:`~repro.sampling.backends.netproto`); keep fleet ports inside one
security boundary.
"""

from __future__ import annotations

import os
import queue
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

from repro.exceptions import SamplingError
from repro.graph.shm import pack_csr_graph, unpack_csr_graph, verify_blob
from repro.sampling.backends.base import (
    WorkerFailed,
    WorkerFleet,
    WorkerLost,
    remove_file,
    serve_frames,
)
from repro.sampling.block import RRBlock
from repro.sampling.backends.netproto import (
    ConnectionClosed,
    cached_hashes,
    load_cached_blob,
    parse_address,
    recv_frame,
    send_frame,
    store_cached_blob,
)

#: Module-level defaults for :class:`NetworkBackend` construction.  The
#: CLI's ``--hosts`` flag rewrites these (via :func:`set_network_defaults`)
#: so every ``make_backend("network")`` in the process — engine pools,
#: benchmarks, services — picks up one fleet configuration without
#: threading constructor arguments through every layer.
_DEFAULTS: dict = {
    "listen": "127.0.0.1:0",
    "spawn": None,  # None = auto: one loopback worker per fleet worker
    "min_hosts": None,  # None = spawn target when self-hosting, else 0
    "lease_ttl": 10.0,
    "cache_dir": None,  # None = per-backend temp dir for spawned workers
    "start_timeout": 60.0,
    "join_grace": 30.0,
}


def set_network_defaults(**overrides) -> dict:
    """Update the process-wide :class:`NetworkBackend` defaults.

    Returns the previous values of the overridden keys so callers (tests)
    can restore them.  Unknown keys are rejected loudly — a typo here
    would otherwise silently configure nothing.
    """
    unknown = set(overrides) - set(_DEFAULTS)
    if unknown:
        raise SamplingError(f"unknown network backend option(s): {sorted(unknown)}")
    previous = {key: _DEFAULTS[key] for key in overrides}
    _DEFAULTS.update(overrides)
    return previous


def parse_hosts_spec(spec: "str | None") -> dict:
    """Parse the CLI ``--hosts`` flag into :func:`set_network_defaults` kwargs.

    Comma-separated tokens, each one of:

    * an integer ``N`` — self-host: spawn N loopback ``repro worker``
      subprocesses (``--hosts 2``);
    * ``HOST:PORT`` — listen there for externally started workers
      (``--hosts 0.0.0.0:8700``), implying ``spawn=0``;
    * ``min=K`` — wait for K registered hosts before sampling starts;
    * ``ttl=SECONDS`` — heartbeat lease time-to-live;
    * ``cache=DIR`` — blob cache directory handed to spawned workers.
    """
    options: dict = {}
    if spec is None or not str(spec).strip():
        return options
    for token in str(spec).split(","):
        token = token.strip()
        if not token:
            continue
        if token.isdigit():
            options["spawn"] = int(token)
        elif token.startswith("min="):
            options["min_hosts"] = int(token[len("min="):])
        elif token.startswith("ttl="):
            options["lease_ttl"] = float(token[len("ttl="):])
        elif token.startswith("cache="):
            options["cache_dir"] = token[len("cache="):]
        else:
            host, port = parse_address(token)  # raises ValueError on junk
            options["listen"] = f"{host}:{port}"
            options.setdefault("spawn", 0)
    return options


class _HostLease:
    """One registered worker host: socket, lease clock, reply queue."""

    def __init__(self, lease_id: int, sock: socket.socket, peer: str) -> None:
        self.lease_id = lease_id
        self.sock = sock
        self.peer = peer
        self.label = "?"
        self.pid: "int | None" = None
        self.ready = False
        self.dead = False
        self.death_reason = ""
        self.last_beat = time.monotonic()
        self.batches_dispatched = 0
        self.batch_seq = 0  # sequence number of this lease's batch in flight
        self.cached: set = set()  # blob hashes the host announced at hello
        self.held: dict = {}  # registration -> snapshot, as sent to the host
        self.replies: "queue.Queue[tuple]" = queue.Queue()
        self._send_lock = threading.Lock()
        self._death_lock = threading.Lock()

    def send(self, message: tuple) -> None:
        try:
            with self._send_lock:
                # The whole point of this lock is to hold it across the
                # socket write: frames from the dispatcher and the
                # heartbeat/abort paths must not interleave mid-frame.
                send_frame(self.sock, message)  # repro: allow[lock-discipline]
        except OSError as exc:
            raise ConnectionClosed(str(exc)) from exc

    def mark_dead(self, reason: str) -> bool:
        """Retire the lease exactly once; returns True on the first call."""
        with self._death_lock:
            if self.dead:
                return False
            self.dead = True
            self.death_reason = reason
        # shutdown() before close(): close alone does not send FIN while
        # the reader thread is blocked in recv on this socket (the
        # in-flight syscall keeps the kernel socket alive), which would
        # leave both the reader and the remote worker hanging forever.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self.replies.put(("gone", reason))
        return True

    def describe(self) -> str:
        return f"host {self.label!r} (lease {self.lease_id}, pid {self.pid}, {self.peer})"


class NetworkBackend(WorkerFleet):
    """Coordinator for a TCP worker-host fleet under heartbeat leases."""

    name = "network"

    def __init__(
        self,
        *,
        listen: "str | None" = None,
        spawn: "int | None" = None,
        min_hosts: "int | None" = None,
        lease_ttl: "float | None" = None,
        cache_dir: "str | None" = None,
        start_timeout: "float | None" = None,
        join_grace: "float | None" = None,
    ) -> None:
        super().__init__()
        pick = lambda value, key: _DEFAULTS[key] if value is None else value  # noqa: E731
        self._listen_spec = pick(listen, "listen")
        self._spawn_cfg = pick(spawn, "spawn")
        self._min_hosts_cfg = pick(min_hosts, "min_hosts")
        self._lease_ttl = float(pick(lease_ttl, "lease_ttl"))
        self._cache_dir = pick(cache_dir, "cache_dir")
        self._start_timeout = float(pick(start_timeout, "start_timeout"))
        self._join_grace = float(pick(join_grace, "join_grace"))
        self._owns_cache_dir = False
        self._spawn_managed = True
        # Intended self-hosted fleet size, which the reaper heals back to.
        # Separate from the worker count: spawn=N and add_local_worker set
        # it without touching the nominal worker count.
        self._fleet_target = 0
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._hosts: dict[int, _HostLease] = {}
        self._lease_seq = 0
        self._spawn_seq = 0
        self._spawn_procs: list[dict] = []
        self._listener_sock: "socket.socket | None" = None
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._payloads: dict = {}  # snapshot -> (blob, GraphManifest)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> "tuple[str, int]":
        """The coordinator's bound ``(host, port)`` (after ``start``)."""
        if self._listener_sock is None:
            raise SamplingError("network backend is not listening (start it first)")
        return self._listener_sock.getsockname()[:2]

    def _start(self, workers: int) -> None:
        self._spawn_managed = self._spawn_cfg is None or self._spawn_cfg > 0
        spawn_target = workers if self._spawn_cfg is None else int(self._spawn_cfg)
        self._fleet_target = spawn_target if self._spawn_managed else 0
        min_hosts = self._min_hosts_cfg
        if min_hosts is None:
            min_hosts = spawn_target if self._spawn_managed else 0
        if self._spawn_managed and self._cache_dir is None:
            self._cache_dir = tempfile.mkdtemp(prefix="rr-graph-cache-")
            self._owns_cache_dir = True
        try:
            host, port = parse_address(self._listen_spec)
        except ValueError as exc:
            raise SamplingError(str(exc)) from exc
        try:
            self._stopping.clear()
            listener = self._listener_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((host, port))
            except OSError as exc:
                raise SamplingError(
                    f"network fleet cannot listen on {host}:{port}: {exc}"
                ) from exc
            listener.listen(64)
            self._spawn_thread(self._accept_loop, "rr-net-accept")
            self._spawn_thread(self._reaper_loop, "rr-net-reaper")
            if self._spawn_managed:
                for _ in range(spawn_target):
                    self._spawn_local_worker()
            if min_hosts > 0:
                deadline = time.monotonic() + self._start_timeout
                with self._cond:
                    while len(self._ready_hosts_locked()) < min_hosts:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise SamplingError(
                                f"network fleet startup timed out: "
                                f"{len(self._ready_hosts_locked())}/{min_hosts} "
                                f"host(s) registered on {self.address[0]}:"
                                f"{self.address[1]} within {self._start_timeout:.0f}s"
                                + self._fault_suffix()
                            )
                        self._cond.wait(min(0.1, remaining))
        except Exception:
            self._teardown()
            raise

    def _resize(self, workers: int) -> None:
        """Grow or shrink the fleet (self-hosted workers only).

        For an externally populated fleet, membership belongs to the
        hosts — resize is bookkeeping, and the dispatcher follows the
        live lease set regardless.
        """
        live = self.live_hosts()
        if self._spawn_managed:
            self._fleet_target = workers
        if workers > len(live):
            if self._spawn_managed:
                for _ in range(workers - len(live)):
                    self._spawn_local_worker()
            return
        for host in live[workers:]:
            self._retire_host(host, "retired by resize")

    def _close(self) -> None:
        self._teardown()

    def _teardown(self) -> None:
        self._stopping.set()
        if self._listener_sock is not None:
            # shutdown() before close(), as in _HostLease.mark_dead: close
            # alone neither wakes the thread blocked in accept() nor
            # frees the port until that thread returns.
            try:
                self._listener_sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener_sock.close()
            except OSError:
                pass
        with self._cond:
            hosts = list(self._hosts.values())
        for host in hosts:
            if not host.dead:
                try:
                    host.send(("close",))
                except ConnectionClosed:
                    pass
            host.mark_dead("backend closed")
        for entry in self._spawn_procs:
            proc = entry["proc"]
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    pass
            remove_file(entry["stderr"])
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []
        self._spawn_procs = []
        with self._cond:
            self._hosts.clear()
        self._listener_sock = None
        self._payloads = {}
        if self._owns_cache_dir and self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None
            self._owns_cache_dir = False

    def __del__(self) -> None:
        # Safety net for abandoned backends; normal paths call close().
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Fleet plumbing (threads)
    # ------------------------------------------------------------------
    def _spawn_thread(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, peer = self._listener_sock.accept()
            except OSError:
                return  # listener closed during teardown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._conn_loop,
                args=(sock, f"{peer[0]}:{peer[1]}"),
                name=f"rr-net-host-{peer[1]}",
                daemon=True,
            ).start()

    def _conn_loop(self, sock: socket.socket, peer: str) -> None:
        """Serve one worker host: handshake, replies, beats."""
        host: "_HostLease | None" = None
        try:
            hello = recv_frame(sock)
            if not (isinstance(hello, tuple) and hello and hello[0] == "hello"):
                sock.close()
                return
            with self._cond:
                self._lease_seq += 1
                host = _HostLease(self._lease_seq, sock, peer)
                info = hello[1] if len(hello) > 1 and isinstance(hello[1], dict) else {}
                host.label = str(info.get("label") or f"host-{self._lease_seq}")
                host.pid = info.get("pid")
                host.cached = set(info.get("cached") or ())
                self._hosts[host.lease_id] = host
            host.send(("welcome", {"lease_id": host.lease_id, "lease_ttl": self._lease_ttl}))
            while not self._stopping.is_set():
                message = recv_frame(sock)
                kind = message[0]
                if kind == "ready":
                    with self._cond:
                        host.ready = True
                        self._cond.notify_all()
                elif kind == "heartbeat":
                    host.last_beat = time.monotonic()
                elif kind in ("result", "error"):
                    host.replies.put(message)
                # anything else: ignore (forward-compatible)
        except (ConnectionClosed, OSError) as exc:
            if host is not None:
                self._retire_host(host, f"connection lost: {exc}")
            else:
                try:
                    sock.close()
                except OSError:
                    pass
        except Exception as exc:  # defensive: a handler bug must not hang a lease
            if host is not None:
                self._retire_host(host, f"coordinator-side fault: {exc!r}")

    def _reaper_loop(self) -> None:
        """Expire leases whose heartbeats stopped arriving."""
        interval = max(0.05, self._lease_ttl / 4)
        while not self._stopping.wait(interval):
            now = time.monotonic()
            with self._cond:
                expired = [
                    host
                    for host in self._hosts.values()
                    if not host.dead and now - host.last_beat > self._lease_ttl
                ]
            for host in expired:
                reason = (
                    f"lease expired: no heartbeat for "
                    f"{now - host.last_beat:.1f}s (ttl {self._lease_ttl:.1f}s)"
                )
                if host.ready:
                    self._lose(host, reason)
                else:
                    self._retire_host(host, reason)

    def _retire_host(self, host: _HostLease, reason: str) -> None:
        if host.mark_dead(reason):
            with self._cond:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Self-hosted loopback workers
    # ------------------------------------------------------------------
    def _spawn_local_worker(self) -> None:
        """Launch one loopback ``repro worker`` subprocess."""
        self._spawn_seq += 1
        label = f"local-{self._spawn_seq}"
        handle = tempfile.NamedTemporaryFile(
            prefix=f"rr-nethost-{label}-", suffix=".stderr", delete=False
        )
        handle.close()
        host, port = self.address
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            f"{host}:{port}",
            "--label",
            label,
            "--retry",
            "30",
        ]
        if self._cache_dir is not None:
            command += ["--cache-dir", self._cache_dir]
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        )
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src_root, env.get("PYTHONPATH")) if part
        )
        with open(handle.name, "ab") as stderr_handle:
            proc = subprocess.Popen(
                command,
                stdout=subprocess.DEVNULL,
                stderr=stderr_handle,
                env=env,
            )
        self._spawn_procs.append({"proc": proc, "label": label, "stderr": handle.name})

    def _reap_spawned(self) -> None:
        """Replace dead self-hosted workers up to the nominal fleet size."""
        if not self._spawn_managed or self._stopping.is_set():
            return
        for entry in [e for e in self._spawn_procs if e["proc"].poll() is not None]:
            remove_file(entry["stderr"])
            self._spawn_procs.remove(entry)
        while len(self._spawn_procs) < self._fleet_target:
            self._spawn_local_worker()
            self.respawns += 1

    # ------------------------------------------------------------------
    # Live-set queries and fault context
    # ------------------------------------------------------------------
    def _ready_hosts_locked(self) -> list[_HostLease]:
        return sorted(
            (h for h in self._hosts.values() if h.ready and not h.dead),
            key=lambda h: h.lease_id,
        )

    def live_hosts(self) -> list[_HostLease]:
        """Snapshot of ready, living hosts (lease order)."""
        with self._cond:
            return self._ready_hosts_locked()

    def hosts_info(self) -> list[dict]:
        """Diagnostics: one dict per ever-registered host."""
        with self._cond:
            return [
                {
                    "lease_id": h.lease_id,
                    "label": h.label,
                    "pid": h.pid,
                    "peer": h.peer,
                    "ready": h.ready,
                    "dead": h.dead,
                    "batches_dispatched": h.batches_dispatched,
                }
                for h in sorted(self._hosts.values(), key=lambda h: h.lease_id)
            ]

    def _await_ready_hosts(self) -> list[_HostLease]:
        """Block until at least one host is ready (or the grace expires)."""
        deadline = time.monotonic() + self._join_grace
        while True:
            # Reap outside the lock: replacing a dead self-hosted worker
            # forks a subprocess, far too slow to hold the fleet lock
            # across (reader/reaper threads would stall behind the fork).
            self._reap_spawned()
            with self._cond:
                hosts = self._ready_hosts_locked()
                if hosts:
                    return hosts
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise SamplingError(
                        "network fleet has no live worker hosts (waited "
                        f"{self._join_grace:.0f}s for a host to join)"
                        + self._fault_suffix()
                    )
                self._cond.wait(min(0.1, remaining))

    # ------------------------------------------------------------------
    # Test hooks (fault injection)
    # ------------------------------------------------------------------
    def inject_abort(self, index: int = 0, reason: str = "injected abort") -> None:
        """Ask the ``index``-th live host to die hard (crash tests)."""
        self.live_hosts()[index].send(("abort", reason))

    def pause_heartbeat(self, index: int = 0) -> None:
        """Silence the ``index``-th live host's heartbeats (lease-expiry tests)."""
        self.live_hosts()[index].send(("pause_heartbeat",))

    def add_local_worker(self) -> None:
        """Spawn one more loopback worker (mid-stream join tests / CLI)."""
        self._fleet_target += 1
        self._spawn_local_worker()

    def wait_for_hosts(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` hosts are registered and ready."""
        deadline = time.monotonic() + timeout
        while True:
            # As in _await_ready_hosts: subprocess respawn happens
            # outside the lock, readiness is re-checked under it.
            self._reap_spawned()
            with self._cond:
                ready = len(self._ready_hosts_locked())
                if ready >= count:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise SamplingError(
                        f"waited {timeout:.0f}s but only "
                        f"{ready}/{count} host(s) joined"
                        + self._fault_suffix()
                    )
                self._cond.wait(min(0.1, remaining))

    # ------------------------------------------------------------------
    # Registry transport and fan-out (the loops are WorkerFleet's)
    # ------------------------------------------------------------------
    def _live_workers(self, wait: bool = True) -> list[_HostLease]:
        return self._await_ready_hosts() if wait else self.live_hosts()

    def _held(self, host: _HostLease) -> dict:
        return host.held

    def _send(self, host: _HostLease, message: tuple) -> None:
        try:
            host.send(message)
        except ConnectionClosed as exc:
            raise WorkerLost(f"is gone: {exc}") from exc

    def _graph_frame(self, host: _HostLease, snapshot: int):
        """``(manifest, blob)``; no blob for a hash the host announced."""
        if snapshot not in self._payloads:
            self._payloads[snapshot] = pack_csr_graph(self._graphs[snapshot])
        blob, manifest = self._payloads[snapshot]
        return manifest, None if manifest.content_hash in host.cached else blob

    def _dispatch(self, host: _HostLease, registration: int, indices, roots) -> None:
        host.batch_seq += 1
        self._send(host, ("sample", host.batch_seq, registration, indices, roots))
        host.batches_dispatched += 1

    def _collect(self, host: _HostLease) -> RRBlock:
        reply = host.replies.get()
        if reply[0] == "gone":
            raise WorkerLost(f"died mid-batch: {reply[1]}")
        if reply[0] == "error":
            raise WorkerFailed(f"{host.describe()} failed: {reply[2]}")
        if reply[1] != host.batch_seq:
            # A lease never has two batches in flight, so a stale
            # sequence number means protocol corruption, not lag.
            raise WorkerLost(f"answered batch {reply[1]}, expected {host.batch_seq}")
        return RRBlock(reply[2], reply[3])

    def _lose(self, host: _HostLease, why: str) -> None:
        """Record the crash context and retire the lease; the next
        round's :meth:`_live_workers` replaces self-hosted workers."""
        stderr = next((e["stderr"] for e in self._spawn_procs if e["label"] == host.label), None)
        self._record_fault(
            f"{host.describe()} {why}; batches dispatched to it: {host.batches_dispatched}",
            stderr,
        )
        self._retire_host(host, why)


# ----------------------------------------------------------------------
# Worker-host runtime (the `repro worker` subcommand)
# ----------------------------------------------------------------------
def run_worker(
    connect: str,
    *,
    cache_dir: "str | None" = None,
    label: "str | None" = None,
    retry_for: float = 0.0,
) -> int:
    """Join a sampling fleet as one worker host; returns an exit code.

    Dials the coordinator (retrying for ``retry_for`` seconds, so workers
    may be launched before the coordinator is up), announces the blob
    hashes ``cache_dir`` holds, registers under a heartbeat lease, and
    then serves every stream of the session until it closes.  The worker
    holds **no stream state** — it is safe to kill at any time and to
    start late.
    """
    address = parse_address(connect)
    deadline = time.monotonic() + max(0.0, float(retry_for))
    while True:
        try:
            sock = socket.create_connection(address, timeout=10.0)
            break
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise SamplingError(
                    f"cannot reach fleet coordinator at {address[0]}:{address[1]}: {exc}"
                ) from exc
            time.sleep(0.2)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    send_lock = threading.Lock()
    stop_beats = threading.Event()
    pause_beats = threading.Event()

    def send(message: tuple) -> None:
        with send_lock:
            send_frame(sock, message)

    def load(payload):
        manifest, blob = payload
        if blob is None:  # a hash this host announced
            blob = load_cached_blob(cache_dir, manifest)
            if blob is None:
                raise SamplingError(f"graph {manifest.content_hash[:16]}… left the blob cache")
        else:
            verify_blob(manifest, blob)  # never sample over a corrupt transfer
            store_cached_blob(cache_dir, manifest, blob)
        return unpack_csr_graph(manifest, blob), blob

    try:
        hello = {"pid": os.getpid(), "label": label or socket.gethostname()}
        send(("hello", dict(hello, cached=cached_hashes(cache_dir))))
        welcome = recv_frame(sock)
        if not (isinstance(welcome, tuple) and welcome[0] == "welcome"):
            raise SamplingError(f"coordinator sent {welcome!r} instead of a welcome")
        lease_ttl = float(welcome[1]["lease_ttl"])

        def heartbeat_loop() -> None:
            interval = max(0.05, lease_ttl / 3.0)
            while not stop_beats.wait(interval):
                if pause_beats.is_set():
                    continue
                try:
                    send(("heartbeat",))
                except OSError:
                    return

        threading.Thread(target=heartbeat_loop, name="rr-worker-beat", daemon=True).start()
        send(("ready",))
        serve_frames(lambda: recv_frame(sock), send, load, lambda blob: None, pause_beats.set)
    except ConnectionClosed:
        pass  # coordinator gone: a stateless worker just leaves
    finally:
        stop_beats.set()
        try:
            sock.close()
        except OSError:
            pass
    return 0

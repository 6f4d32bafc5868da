"""Asyncio TCP front-end for :class:`~repro.service.service.InfluenceService`.

The serving tier is a single event loop, so **connection count is
decoupled from thread count**: ten thousand idle sockets cost ten
thousand readers on one loop, not ten thousand threads.  Protocol work
(framing, dispatch, response writing) happens on the loop; query work
happens on the service's existing thread pool via
:meth:`~repro.service.service.InfluenceService.submit`, bridged back
with :func:`asyncio.wrap_future` — the `PoolManager` locking discipline
is untouched, the loop never blocks on a query.

Requests **pipeline per connection**: a client may write any number of
request lines without waiting; each is dispatched as its own task and
answered when it completes, so responses can arrive **out of order** —
clients match on ``id`` (see :mod:`repro.service.protocol`).  One
connection issuing a slow ``maximize`` and a ``ping`` gets the pong
immediately.

Lifecycle mirrors the historical thread-per-connection server exactly —
``serve_forever`` / ``start_background`` / ``stop_async`` /
``shutdown`` with the same shutdown-vs-startup race guarantees — and the
listening socket binds eagerly in ``__init__`` so :attr:`address` is
known before serving.  Clients may send ``{"op": "shutdown"}`` to stop
the server remotely (used by CI and orchestration scripts); the
response is written before the listener winds down.

With ``metrics_port`` set, a second listener serves Prometheus text
exposition to plain HTTP ``GET /metrics`` scrapes
(:func:`~repro.service.metrics.prometheus_text`) — no protocol client
needed to observe the tier.
"""

from __future__ import annotations

import asyncio
import socket
import threading

from repro.exceptions import ReproError
from repro.service.metrics import prometheus_text
from repro.service.protocol import (
    ErrorResponse,
    OkResponse,
    Request,
    decode_line,
    encode_line,
    hello_payload,
)
from repro.service.service import OPERATIONS, InfluenceService
from repro.utils.logging import get_logger

#: transport-level ops the server answers without touching the service.
TRANSPORT_OPS = ("hello", "shutdown")

_log = get_logger(__name__)


class InfluenceServer:
    """Serve an :class:`InfluenceService` over an asyncio TCP socket.

    Parameters
    ----------
    service:
        The service that owns sessions and pools.  The server never
        closes it unless :meth:`shutdown` is asked to (``repro serve``
        does, so a remote ``shutdown`` op spills pools on the way out).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    metrics_port:
        When not ``None``, also bind an HTTP listener on
        ``(host, metrics_port)`` answering ``GET /metrics`` with
        Prometheus text exposition (``0`` picks a free port, see
        :attr:`metrics_address`).
    """

    def __init__(
        self,
        service: InfluenceService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: int | None = None,
    ) -> None:
        self.service = service
        # Eager bind: the address is known (and the port reserved) before
        # serve_forever runs, exactly as the socketserver front end did.
        self._sock = socket.create_server((host, port))
        self._metrics_sock = (
            socket.create_server((host, metrics_port))
            if metrics_port is not None
            else None
        )
        self._stopped = threading.Event()
        self._finished = threading.Event()  # serve loop fully wound down
        self._lifecycle = threading.Lock()
        self._serving = False
        self._loop: asyncio.AbstractEventLoop | None = None
        # Loop-thread-only state (no locks: touched only on the loop).
        self._stop_event: asyncio.Event | None = None
        self._stop_requested = False
        self._tasks: set = set()
        self._handlers: dict = {}  # connection task -> its StreamWriter
        self._connections = 0

    @property
    def address(self) -> "tuple[str, int]":
        """The actually bound ``(host, port)``."""
        return self._sock.getsockname()[:2]

    @property
    def metrics_address(self) -> "tuple[str, int] | None":
        """The bound metrics ``(host, port)``; ``None`` when disabled."""
        if self._metrics_sock is None:
            return None
        return self._metrics_sock.getsockname()[:2]

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    async def _respond(self, raw: bytes):
        """Decode and dispatch one request line (loop thread).

        Returns ``(response_frame, stop_server)``.
        """
        request_id = None
        try:
            message = decode_line(raw)
            request_id = message.get("id")
            request = Request.from_wire(message)
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            return ErrorResponse.from_exception(request_id, exc), False
        if request.op == "shutdown":
            return OkResponse(request.id, {"stopping": True}), True
        if request.op == "hello":
            return OkResponse(request.id, hello_payload(OPERATIONS + TRANSPORT_OPS)), False
        try:
            future = self.service.submit(
                request.op, session=request.session, **request.params
            )
            result = await asyncio.wrap_future(future)
            return OkResponse(request.id, self.service.wire_result(result)), False
        except Exception as exc:  # every request gets an answer
            response = ErrorResponse.from_exception(request.id, exc)
            if response.code == "internal":
                _log.error("%s request failed", request.op, exc_info=exc)
            return response, False

    # ------------------------------------------------------------------
    # Connection handling (loop thread)
    # ------------------------------------------------------------------
    async def _handle_request(self, raw, writer, write_lock) -> None:
        response, stop = await self._respond(raw)
        try:
            async with write_lock:
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionError, OSError):
            # Client went away mid-response: the query already completed
            # (and released its pool snapshot); nothing to clean up.
            return
        if stop:
            self.stop_async()

    def _spawn(self, coro):
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _tracked(self, handler):
        """``handler`` as a ``start_server`` callback the server can stop.

        ``asyncio.start_server`` runs each connection handler as a task
        it does not track, so the server registers each one with its
        writer; shutdown closes the writers and awaits the tasks.
        """

        async def run(reader, writer) -> None:
            task = asyncio.current_task()
            self._handlers[task] = writer
            try:
                await handler(reader, writer)
            finally:
                del self._handlers[task]

        return run

    async def _handle_connection(self, reader, writer) -> None:
        """One client connection: pipelined request lines in, responses out.

        Every request line becomes its own task, so a connection can
        have many queries in flight; the write lock keeps response
        frames whole.  On disconnect — clean or abrupt — the handler
        waits for in-flight requests to finish (their executor futures
        are not cancellable mid-query), which releases their pool
        snapshots; their response writes fail silently.
        """
        self._connections += 1
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (ConnectionError, OSError):
                    break
                if not raw:
                    break
                if not raw.strip():
                    continue
                task = self._spawn(self._handle_request(raw, writer, write_lock))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_metrics(self, reader, writer) -> None:
        """Answer one plain-HTTP scrape on the metrics listener."""
        try:
            request_line = await reader.readline()
            while True:  # drain headers up to the blank line
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            method = parts[0].decode("latin-1") if parts else ""
            path = parts[1].decode("latin-1") if len(parts) > 1 else "/"
            path = path.split("?", 1)[0]
            if method != "GET":
                status, ctype = "405 Method Not Allowed", "text/plain; charset=utf-8"
                body = b"method not allowed; GET /metrics\n"
            elif path not in ("/metrics", "/"):
                status, ctype = "404 Not Found", "text/plain; charset=utf-8"
                body = b"not found; scrape /metrics\n"
            else:
                text = prometheus_text(self.service, connections=self._connections)
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                body = text.encode()
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _signal_stop(self) -> None:
        # Runs on the loop thread (scheduled by call_soon_threadsafe).
        self._stop_requested = True
        if self._stop_event is not None:
            self._stop_event.set()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        if self._stop_requested:
            # shutdown() signalled before the loop started running.
            self._stop_event.set()
        server = await asyncio.start_server(
            self._tracked(self._handle_connection), sock=self._sock
        )
        metrics_server = None
        if self._metrics_sock is not None:
            metrics_server = await asyncio.start_server(
                self._tracked(self._handle_metrics), sock=self._metrics_sock
            )
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            if metrics_server is not None:
                metrics_server.close()
            # Outstanding request tasks: cancel the awaits (the executor
            # side of an in-flight query still runs to completion and
            # releases its snapshot; only the response write is dropped).
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            # Then the connection handlers.  Closing a connection ends
            # its handler's read loop, and the handler finishes normally;
            # one still pending when the loop closes would be destroyed
            # mid-await ("Task was destroyed but it is pending!").  A
            # handler that started during the gather is caught by the
            # next pass.
            while self._handlers:
                handlers = list(self._handlers.items())
                for _task, writer in handlers:
                    writer.close()
                await asyncio.gather(*(task for task, _ in handlers), return_exceptions=True)
            # Only now wait for the listeners: from Python 3.12.1 on,
            # ``wait_closed`` also waits for every accepted connection
            # to drop, so awaiting it first would hang on an idle client.
            await server.wait_closed()
            if metrics_server is not None:
                await metrics_server.wait_closed()

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or a remote one)."""
        with self._lifecycle:
            if self._stopped.is_set():
                # shutdown() won the race (or already ran): never enter the
                # serve loop, just release the sockets.
                self._close_sockets()
                self._finished.set()
                return
            self._serving = True
            loop = asyncio.new_event_loop()
            self._loop = loop
        try:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self._serve())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()
                with self._lifecycle:
                    self._serving = False
                    self._loop = None
                    self._stopped.set()
                self._close_sockets()
                self._finished.set()

    def _close_sockets(self) -> None:
        # Idempotent; asyncio's Server.close() may already have closed
        # the underlying sockets.
        self._sock.close()
        if self._metrics_sock is not None:
            self._metrics_sock.close()

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns the thread."""
        thread = threading.Thread(
            target=self.serve_forever, name="influence-server", daemon=True
        )
        thread.start()
        return thread

    def stop_async(self) -> None:
        """Request shutdown from the loop or a handler (non-blocking)."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def shutdown(self, *, close_service: bool = False) -> None:
        """Stop the listener (idempotent); optionally close the service.

        Safe at any lifecycle point: if the loop is live, the stop event
        is set on the loop thread and the caller waits for the loop to
        wind down; if the loop has not started yet (``start_background``
        just launched its thread), the stop flag makes ``serve_forever``
        exit before serving instead — no deadlock either way.
        """
        with self._lifecycle:
            first = not self._stopped.is_set()
            self._stopped.set()
            serving = self._serving
            loop = self._loop
        if first:
            if serving and loop is not None:
                try:
                    loop.call_soon_threadsafe(self._signal_stop)
                except RuntimeError:
                    pass  # the loop closed between the lock and the call
                self._finished.wait(timeout=30)
            else:
                self._close_sockets()
        if close_service:
            self.service.close()

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()


def serve(
    service: InfluenceService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_port: int | None = None,
) -> InfluenceServer:
    """Convenience: build a server bound to ``(host, port)``."""
    return InfluenceServer(service, host=host, port=port, metrics_port=metrics_port)

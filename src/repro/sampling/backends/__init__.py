"""Pluggable execution backends for parallel RR-set sampling.

``serial`` (default), ``thread``, ``process``, and ``network`` all
implement the :class:`ExecutionBackend` contract; see
:mod:`repro.sampling.backends.base` for the coordinator/worker protocol
and the determinism guarantee (backend choice never changes the sampled
RR stream).
"""

from __future__ import annotations

from repro.exceptions import SamplingError
from repro.sampling.backends.base import ExecutionBackend, StreamSpec
from repro.sampling.backends.network import (
    NetworkBackend,
    parse_hosts_spec,
    run_worker,
    set_network_defaults,
)
from repro.sampling.backends.process import ProcessBackend, default_worker_count
from repro.sampling.backends.serial import SerialBackend
from repro.sampling.backends.thread import ThreadBackend

#: registry keyed by CLI / API name.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
    NetworkBackend.name: NetworkBackend,
}


def backend_key(backend: "str | ExecutionBackend") -> str:
    """The registry name a backend name (any case/padding) or instance
    stands for."""
    if isinstance(backend, ExecutionBackend):
        return backend.name
    return str(backend).strip().lower()


def make_backend(backend: "str | ExecutionBackend") -> ExecutionBackend:
    """Coerce a backend name (or pass through an instance) to a backend.

    ``None`` names no backend: which one a fleet runs when the caller
    leaves it open depends on the worker count, and
    :func:`~repro.sampling.sharded.default_fleet` alone decides it.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    key = backend_key(backend)
    if key not in BACKENDS:
        raise SamplingError(
            f"unknown execution backend {backend!r}; known: {sorted(BACKENDS)}"
        )
    return BACKENDS[key]()


__all__ = [
    "ExecutionBackend",
    "StreamSpec",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "NetworkBackend",
    "BACKENDS",
    "backend_key",
    "make_backend",
    "default_worker_count",
    "parse_hosts_spec",
    "run_worker",
    "set_network_defaults",
]

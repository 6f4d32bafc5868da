"""Reverse Influence Sampling (RIS): RR-set generators and collections."""

from repro.sampling.roots import UniformRoots, WeightedRoots
from repro.sampling.ic_sampler import ICSampler
from repro.sampling.lt_sampler import LTSampler
from repro.sampling.base import RRSampler, make_sampler
from repro.sampling.rr_collection import RRCollection
from repro.sampling.sharded import ShardedSampler, make_parallel_sampler
from repro.sampling.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.sampling.kernels import KERNEL_NAMES, SamplingKernel, make_kernel
from repro.sampling.seedstream import SeedStream

__all__ = [
    "RRSampler",
    "make_sampler",
    "make_parallel_sampler",
    "ICSampler",
    "LTSampler",
    "ShardedSampler",
    "RRCollection",
    "UniformRoots",
    "WeightedRoots",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "make_backend",
    "SamplingKernel",
    "KERNEL_NAMES",
    "make_kernel",
    "SeedStream",
]

"""Pluggable compiled-kernel backends for the batched slot pipeline.

Public surface of the subsystem (see ``docs/kernels.md``):

* :class:`KernelBackend` — the kernel contract and bit-equivalence policy.
* :class:`NumpyBackend` / :class:`NumbaBackend` — the reference and the
  optional jitted implementation.
* :func:`resolve_backend` / :func:`resolve_backend_name` — selector
  resolution (``auto`` / ``numpy`` / ``numba`` / a registered name).
* :func:`register_backend`, :func:`available_backends`,
  :func:`backend_versions` — registry and capability detection.

Every backend is bit-identical to the numpy reference by contract —
selection changes wall-clock only, never results.
"""

from .base import BackendUnavailableError, KernelBackend
from .numba_backend import NumbaBackend, numba_version
from .numpy_backend import NumpyBackend
from .profiling import ProfiledBackend
from .registry import (
    BACKEND_CHOICES,
    available_backends,
    backend_available,
    backend_names,
    backend_versions,
    default_backend,
    get_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
)

__all__ = [
    "BACKEND_CHOICES",
    "BackendUnavailableError",
    "KernelBackend",
    "NumbaBackend",
    "NumpyBackend",
    "ProfiledBackend",
    "available_backends",
    "backend_available",
    "backend_names",
    "backend_versions",
    "default_backend",
    "get_backend",
    "numba_version",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
]

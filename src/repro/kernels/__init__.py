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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("KernelBackend",),
    ".numba_backend": ("NumbaBackend", "numba_version"),
    ".numpy_backend": ("NumpyBackend",),
    ".profiling": ("ProfiledBackend",),
    ".registry": (
        "BACKEND_CHOICES",
        "BackendUnavailableError",
        "available_backends",
        "backend_available",
        "backend_names",
        "backend_versions",
        "default_backend",
        "get_backend",
        "register_backend",
        "resolve_backend",
        "resolve_backend_name",
    ),
})

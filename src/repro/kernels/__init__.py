"""Numeric kernels of the batched slot pipeline.

Public surface of the subsystem (see ``docs/kernels.md``):

* :class:`KernelBackend` — the kernel contract that the reference and
  the profiling wrapper share.
* :class:`NumpyBackend` — the numpy reference, the one backend.
* :class:`ProfiledBackend` — counts and times every kernel call.
* :func:`resolve_backend` / :func:`resolve_backend_name` — selector
  resolution (``auto`` / ``numpy``), and :func:`backend_versions` —
  the numpy version run manifests record.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("KernelBackend",),
    ".numpy_backend": ("NumpyBackend",),
    ".profiling": ("ProfiledBackend",),
    ".registry": (
        "BACKEND_CHOICES",
        "BackendUnavailableError",
        "backend_versions",
        "get_backend",
        "resolve_backend",
        "resolve_backend_name",
    ),
})

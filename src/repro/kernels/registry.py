"""Backend selection: the numpy reference is the one kernel backend.

Selection semantics (mirrored by the CLI's ``--backend`` flag and
``SimulationConfig.backend``, both limited to :data:`BACKEND_CHOICES`):

* ``"numpy"`` — the reference backend.
* ``"auto"`` — the default selector; it resolves to ``"numpy"``.  It
  stays the default because config and sweep-spec fingerprints hash
  the selector as written.

Any other name (a snapshot or artifact written by a build that had
other backends) raises :class:`BackendUnavailableError`.  Resolved
backend *names* (never ``"auto"``) are what run manifests and sharding
cell IDs record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import BACKEND_CHOICES, EQUIVALENCE_CHOICES

if TYPE_CHECKING:
    from .base import KernelBackend

__all__ = [
    "BACKEND_CHOICES",
    "BackendUnavailableError",
    "backend_versions",
    "get_backend",
    "resolve_backend",
    "resolve_backend_name",
]


class BackendUnavailableError(RuntimeError):
    """A requested backend cannot run in this build (any name but
    ``numpy``, e.g. a snapshot that names a removed backend)."""


_NUMPY: KernelBackend | None = None


def get_backend(name: str) -> KernelBackend:
    """The process-wide numpy backend singleton, for ``name == "numpy"``.

    Snapshots pickle a backend as ``get_backend(name)``, so this is
    also what restores one.  Any other name raises
    :class:`BackendUnavailableError`.
    """
    global _NUMPY
    if name != "numpy":
        raise _unavailable(name)
    if _NUMPY is None:
        from .numpy_backend import NumpyBackend

        _NUMPY = NumpyBackend()
    return _NUMPY


def resolve_backend(
    selector: str | KernelBackend = "auto",
    *,
    equivalence: str = "bitwise",
) -> KernelBackend:
    """Resolve a config/CLI selector to a backend instance.

    Accepts a backend instance (returned as-is), ``"numpy"`` or
    ``"auto"``.  ``equivalence`` must be ``"bitwise"``
    (:data:`EQUIVALENCE_CHOICES`).
    """
    if equivalence not in EQUIVALENCE_CHOICES:
        raise ValueError(
            f"equivalence must be one of {EQUIVALENCE_CHOICES}, "
            f"got {equivalence!r}"
        )
    if not isinstance(selector, str):
        return _backend_instance(selector)
    return get_backend(resolve_backend_name(selector))


def resolve_backend_name(selector: str | KernelBackend = "auto") -> str:
    """Resolve a selector to the backend *name* that would run, without
    constructing anything.

    This is what sharding cell IDs and run manifests record: the
    concrete backend identity, never ``"auto"``.
    """
    if not isinstance(selector, str):
        return _backend_instance(selector).name
    if selector not in BACKEND_CHOICES:
        raise _unavailable(selector)
    return "numpy"


def _unavailable(name: str) -> BackendUnavailableError:
    return BackendUnavailableError(
        f"kernel backend {name!r} is not available; this build has only "
        "the numpy reference backend (use --backend numpy)"
    )


def _backend_instance(selector) -> KernelBackend:
    from .base import KernelBackend

    if not isinstance(selector, KernelBackend):
        raise TypeError(f"backend selector must be a string, got {type(selector)}")
    return selector


def backend_versions() -> dict[str, str]:
    """Version of the numeric substrate, recorded in run manifests so
    artifacts are attributable to their exact kernel provenance."""
    import numpy as np

    return {"numpy": np.__version__}

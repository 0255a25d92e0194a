"""Backend registry: registration, capability detection, resolution.

Selection semantics (mirrored by the CLI's ``--backend`` flag and
``SimulationConfig.backend``):

* ``"numpy"`` — the reference backend, always available.
* ``"numba"`` — the jitted backend; raises
  :class:`~repro.kernels.base.BackendUnavailableError` when the
  optional numba package is absent (an *explicit* request must fail
  loudly, never silently degrade).
* ``"auto"`` — numba when available, else the numpy reference with a
  once-per-process :class:`RuntimeWarning` (graceful degradation).

Every backend is bit-identical to the numpy reference (see
:mod:`repro.kernels.base`), so one zero-argument factory call per name
builds the process-wide singleton.

Third-party backends plug in via :func:`register_backend`; resolved
backend *names* (never ``"auto"``) are what run manifests and sharding
cell IDs record, so artifacts from different backends never silently
mix.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable

import numpy as np

from ..config import EQUIVALENCE_CHOICES
from .base import BackendUnavailableError, KernelBackend
from .numba_backend import NumbaBackend, numba_version
from .numpy_backend import NumpyBackend

__all__ = [
    "BACKEND_CHOICES",
    "available_backends",
    "backend_available",
    "backend_names",
    "backend_versions",
    "default_backend",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
]

#: Selector values the CLI / config accept out of the box.
BACKEND_CHOICES = ("auto", "numpy", "numba")

_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
#: Cheap availability probes (no construction / compilation).
_PROBES: dict[str, Callable[[], bool]] = {}
#: Constructed singletons keyed by name; compiled backends build their
#: kernel table once.
_INSTANCES: dict[str, KernelBackend] = {}
#: Once-per-process latch for the ``auto`` -> numpy degradation
#: warning.  Reset via :func:`_reset_for_tests` so test suites can
#: assert the warning without leaking the latch across runs.
_warned_fallback = False


def _reset_for_tests() -> None:
    """Re-arm the once-per-process degradation warning (test hook).

    The latch exists so interactive sessions see the ``auto`` -> numpy
    fallback exactly once; tests that assert the warning must be able
    to re-arm it without reaching into module internals.
    """
    global _warned_fallback
    _warned_fallback = False


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    *,
    probe: Callable[[], bool] | None = None,
    override: bool = False,
) -> None:
    """Register a backend factory under ``name``.

    ``probe`` is an optional cheap availability check (import test, not
    construction); without one, availability is probed by constructing.
    """
    if not name or name == "auto":
        raise ValueError("backend name must be a non-empty string other than 'auto'")
    if name in _FACTORIES and not override:
        raise ValueError(f"kernel backend {name!r} is already registered")
    _FACTORIES[name] = factory
    if probe is not None:
        _PROBES[name] = probe
    else:
        _PROBES.pop(name, None)
    _INSTANCES.pop(name, None)


def backend_names() -> tuple[str, ...]:
    """All registered backend names, available or not."""
    return tuple(sorted(_FACTORIES))


def backend_available(name: str) -> bool:
    """Can ``name`` run here?  Uses the registered probe (no kernel
    compilation); unknown names are simply unavailable."""
    if name in _INSTANCES:
        return True
    if name not in _FACTORIES:
        return False
    probe = _PROBES.get(name)
    if probe is not None:
        return bool(probe())
    try:
        get_backend(name)
    except BackendUnavailableError:
        return False
    return True


def available_backends() -> tuple[str, ...]:
    """Names of every backend usable in this environment."""
    return tuple(n for n in backend_names() if backend_available(n))


def get_backend(name: str) -> KernelBackend:
    """Construct (once) and return the backend ``name``.

    Raises ``KeyError`` for unknown names and
    :class:`BackendUnavailableError` when the backend's dependency is
    missing.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel backend {name!r}; registered: {sorted(_FACTORIES)}"
        ) from None
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = factory()
        _INSTANCES[name] = inst
    return inst


def default_backend() -> KernelBackend:
    """The bitwise numpy reference singleton (what substrates bind when
    built outside an engine)."""
    return get_backend("numpy")


def resolve_backend(
    selector: str | KernelBackend = "auto",
    *,
    equivalence: str = "bitwise",
    warn_fallback: bool = True,
) -> KernelBackend:
    """Resolve a config/CLI selector to a concrete backend instance.

    Accepts a backend instance (returned as-is), a registered name, or
    ``"auto"``.  ``"auto"`` prefers numba and degrades to numpy with a
    once-per-process warning when numba is unavailable.
    ``equivalence`` must be ``"bitwise"`` (:data:`EQUIVALENCE_CHOICES`),
    the one numeric contract every backend honours.
    """
    global _warned_fallback
    if equivalence not in EQUIVALENCE_CHOICES:
        raise ValueError(
            f"equivalence must be one of {EQUIVALENCE_CHOICES}, "
            f"got {equivalence!r}"
        )
    if isinstance(selector, KernelBackend):
        return selector
    if not isinstance(selector, str):
        raise TypeError(f"backend selector must be a string, got {type(selector)}")
    if selector == "auto":
        try:
            return get_backend("numba")
        except BackendUnavailableError as exc:
            if warn_fallback and not _warned_fallback:
                _warned_fallback = True
                warnings.warn(
                    f"kernel backend 'auto': {exc}; using the numpy reference "
                    "backend",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return get_backend("numpy")
    return get_backend(selector)


def resolve_backend_name(selector: str | KernelBackend = "auto") -> str:
    """Resolve a selector to the backend *name* that would run, without
    constructing (or compiling) anything.

    This is what sharding cell IDs and run manifests record: the
    concrete backend identity, never ``"auto"``.
    """
    if isinstance(selector, KernelBackend):
        return selector.name
    if not isinstance(selector, str):
        raise TypeError(f"backend selector must be a string, got {type(selector)}")
    if selector == "auto":
        return "numba" if backend_available("numba") else "numpy"
    if selector not in _FACTORIES:
        raise KeyError(
            f"unknown kernel backend {selector!r}; registered: {sorted(_FACTORIES)}"
        )
    return selector


def backend_versions() -> dict[str, str | None]:
    """Versions of the numeric substrate per backend dependency —
    recorded in run manifests so artifacts are attributable to the
    exact kernel provenance.  ``None`` marks an absent optional dep."""
    return {"numpy": np.__version__, "numba": numba_version()}


register_backend("numpy", NumpyBackend, probe=lambda: True)
register_backend("numba", NumbaBackend, probe=lambda: numba_version() is not None)

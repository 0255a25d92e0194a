"""Registry semantics: registration, lookup, resolution, versions."""

import numpy as np
import pytest

from repro.kernels import (
    BACKEND_CHOICES,
    KernelBackend,
    NumpyBackend,
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


class TestLookup:
    def test_builtin_backends_registered(self):
        names = backend_names()
        assert "numpy" in names
        assert "numba" in names

    def test_choices_cover_builtins_plus_auto(self):
        assert BACKEND_CHOICES == ("auto", "numpy", "numba")

    def test_numpy_always_available(self):
        assert backend_available("numpy")
        assert "numpy" in available_backends()

    def test_unknown_name_unavailable_not_error(self):
        assert not backend_available("tpu")

    def test_get_backend_is_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert default_backend() is get_backend("numpy")

    def test_get_backend_unknown_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown kernel backend 'tpu'"):
            get_backend("tpu")


class TestRegistration:
    def test_register_and_resolve_custom_backend(self, clean_registry):
        class EchoBackend(NumpyBackend):
            name = "echo"

        register_backend("echo", EchoBackend, probe=lambda: True)
        assert "echo" in backend_names()
        assert backend_available("echo")
        assert isinstance(get_backend("echo"), EchoBackend)
        assert resolve_backend_name("echo") == "echo"
        assert resolve_backend("echo").name == "echo"

    def test_register_rejects_auto_and_empty(self, clean_registry):
        with pytest.raises(ValueError):
            register_backend("auto", NumpyBackend)
        with pytest.raises(ValueError):
            register_backend("", NumpyBackend)

    def test_duplicate_requires_override(self, clean_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)
        register_backend("numpy", NumpyBackend, override=True)
        assert get_backend("numpy").name == "numpy"

    def test_probeless_backend_probed_by_construction(self, clean_registry):
        class Broken(NumpyBackend):
            name = "broken"

            def __init__(self):
                from repro.kernels import BackendUnavailableError

                raise BackendUnavailableError("nope")

        register_backend("broken", Broken)
        assert not backend_available("broken")
        assert "broken" not in available_backends()


class TestResolution:
    def test_instance_passes_through(self):
        inst = NumpyBackend()
        assert resolve_backend(inst) is inst
        assert resolve_backend_name(inst) == "numpy"

    def test_non_string_selector_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend(42)
        with pytest.raises(TypeError):
            resolve_backend_name(42)

    def test_resolved_name_never_auto(self):
        assert resolve_backend_name("auto") in ("numpy", "numba")

    def test_name_resolution_matches_instance_resolution(self):
        assert (
            resolve_backend("auto", warn_fallback=False).name
            == resolve_backend_name("auto")
        )

    def test_unknown_selector_name_raises(self):
        with pytest.raises(KeyError):
            resolve_backend_name("tpu")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="equivalence"):
            resolve_backend("numpy", equivalence="statistical")


class TestVersions:
    def test_numpy_version_recorded(self):
        versions = backend_versions()
        assert versions["numpy"] == np.__version__

    def test_numba_key_present_even_when_absent(self):
        versions = backend_versions()
        assert "numba" in versions  # None marks the missing optional dep


class TestContract:
    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()

    def test_name_is_concrete_on_instances(self):
        assert get_backend("numpy").name == "numpy"

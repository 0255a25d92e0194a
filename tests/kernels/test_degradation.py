"""Graceful-degradation paths, exercised regardless of the host.

The numba dependency is faked absent (or present) by monkeypatching
the single capability probe, ``numba_version`` — the seam lives in two
module namespaces (the backend module and the registry's probe
closure), so both are patched.  These tests must pass identically on
hosts with and without numba installed.
"""

import warnings

import pytest

from repro.kernels import (
    BackendUnavailableError,
    available_backends,
    backend_available,
    backend_versions,
    get_backend,
    resolve_backend,
    resolve_backend_name,
)
from repro.kernels import numba_backend as numba_backend_mod
from repro.kernels import registry as registry_mod


def _force_numba(monkeypatch, registry, version):
    """Pretend numba_version() returns ``version`` everywhere."""
    monkeypatch.setattr(numba_backend_mod, "numba_version", lambda: version)
    monkeypatch.setattr(registry_mod, "numba_version", lambda: version)
    registry._INSTANCES.pop("numba", None)


@pytest.fixture
def no_numba(monkeypatch, clean_registry):
    _force_numba(monkeypatch, clean_registry, None)
    clean_registry._warned_fallback = False
    return clean_registry


@pytest.fixture
def fake_numba(monkeypatch, clean_registry):
    _force_numba(monkeypatch, clean_registry, "99.0-fake")
    return clean_registry


class TestNumbaAbsent:
    def test_explicit_numba_fails_loudly(self, no_numba):
        with pytest.raises(BackendUnavailableError, match="numba"):
            get_backend("numba")
        with pytest.raises(BackendUnavailableError, match="--backend numpy"):
            resolve_backend("numba")

    def test_auto_falls_back_to_numpy_with_warning(self, no_numba):
        with pytest.warns(RuntimeWarning, match="numpy reference"):
            backend = resolve_backend("auto")
        assert backend.name == "numpy"

    def test_fallback_warns_once_per_process(self, no_numba):
        with pytest.warns(RuntimeWarning):
            resolve_backend("auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert resolve_backend("auto").name == "numpy"

    def test_reset_hook_rearms_the_warning(self, no_numba):
        """``_reset_for_tests`` is the supported way to re-arm the
        once-per-process latch — suites must not poke the module
        global directly."""
        with pytest.warns(RuntimeWarning):
            resolve_backend("auto")
        registry_mod._reset_for_tests()
        with pytest.warns(RuntimeWarning, match="numpy reference"):
            resolve_backend("auto")

    def test_availability_reporting(self, no_numba):
        assert not backend_available("numba")
        assert "numba" not in available_backends()
        assert resolve_backend_name("auto") == "numpy"
        assert backend_versions()["numba"] is None

    def test_engine_auto_runs_on_numpy(self, no_numba):
        from repro.analysis import PROTOCOLS
        from repro.config import paper_config
        from repro.simulation.engine import SimulationEngine

        with pytest.warns(RuntimeWarning):
            engine = SimulationEngine(
                paper_config(seed=0, rounds=1), PROTOCOLS["direct"]()
            )
        assert engine.kernels.name == "numpy"
        engine.run()

    def test_cli_explicit_numba_exits_with_clear_error(self, no_numba, capsys):
        from repro.cli import main

        rc = main(["scenario", "table2", "--backend", "numba"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numba" in err
        assert "--backend numpy" in err


class TestNumbaFakedPresent:
    def test_auto_resolves_to_numba_name(self, fake_numba):
        # Name resolution never constructs, so a faked probe is enough.
        assert resolve_backend_name("auto") == "numba"
        assert backend_available("numba")
        assert "numba" in available_backends()
        assert backend_versions()["numba"] == "99.0-fake"

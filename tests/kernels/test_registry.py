"""Backend selection: lookup, resolution, versions."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import (
    BACKEND_CHOICES,
    BackendUnavailableError,
    KernelBackend,
    NumpyBackend,
    backend_versions,
    get_backend,
    resolve_backend,
    resolve_backend_name,
)

SRC = Path(__file__).resolve().parents[2] / "src"


class TestLookup:
    def test_choices_cover_builtins_plus_auto(self):
        assert BACKEND_CHOICES == ("auto", "numpy")

    def test_get_backend_is_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_get_backend_unknown_raises_unavailable(self):
        with pytest.raises(BackendUnavailableError, match="'tpu'"):
            get_backend("tpu")

    def test_explicit_numba_fails_loudly(self):
        """A selector naming the removed numba backend (an old spec,
        snapshot or script) is refused, with the remedy named."""
        with pytest.raises(BackendUnavailableError, match="numba"):
            get_backend("numba")
        with pytest.raises(BackendUnavailableError, match="--backend numpy"):
            resolve_backend("numba")

    def test_backend_pickles_as_its_name(self):
        bk = get_backend("numpy")
        assert bk.__reduce__() == (get_backend, ("numpy",))
        assert pickle.loads(pickle.dumps(bk)) is bk


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
        assert resolve_backend_name("auto") == "numpy"

    def test_name_resolution_matches_instance_resolution(self):
        assert resolve_backend("auto").name == resolve_backend_name("auto")
        assert resolve_backend("auto") is get_backend("numpy")

    def test_unknown_selector_name_raises(self):
        with pytest.raises(BackendUnavailableError):
            resolve_backend_name("tpu")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="equivalence"):
            resolve_backend("numpy", equivalence="statistical")

    def test_engine_auto_builds_without_a_warning(self):
        """``auto`` resolves to numpy silently: an engine built from
        the default config under ``-W error::RuntimeWarning`` runs in a
        fresh process (no earlier test can have spent a warning)."""
        code = (
            "from repro.config import paper_config\n"
            "from repro.core import QLECProtocol\n"
            "from repro.simulation.engine import SimulationEngine\n"
            "engine = SimulationEngine(paper_config(rounds=1), QLECProtocol())\n"
            "assert engine.kernels.name == 'numpy'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestVersions:
    def test_numpy_version_recorded(self):
        assert backend_versions() == {"numpy": np.__version__}


class TestContract:
    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()

    def test_name_is_concrete_on_instances(self):
        assert get_backend("numpy").name == "numpy"

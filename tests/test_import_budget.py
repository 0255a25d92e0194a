"""Import budget: each entry point loads only the modules it runs.

The package ``__init__``s resolve their re-exported names on first
access, so a command that runs no simulation — importing the package,
printing the CLI help, re-running a finished sweep — loads neither
numpy nor the engine.  ``benchmarks/test_bench_micro.py`` times the
same three commands into ``BENCH_cold_start.json``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Command name -> interpreter arguments, run from a scratch directory.
#: ``sweep_resume`` re-runs a two-cell grid :func:`finish_sweep` ran.
COMMANDS = {
    "import": ("-c", "import repro"),
    "help": ("-m", "repro", "--help"),
    "sweep_resume": (
        "-m", "repro", "sweep", "--protocols", "qlec", "direct",
        "--lambdas", "4", "--seeds", "0", "--rounds", "2",
        "--scheduler", "--backend", "numpy", "--out", "finished.jsonl",
    ),
}


#: Runs ``python <args>`` in-process, then reports ``sys.modules`` at
#: exit (``-X importtime`` misses what ``importlib`` imports).
PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print("loaded:", *sorted(sys.modules), file=sys.stderr))
flag, target, *rest = sys.argv[1:]
sys.argv = [flag, *rest]
if flag == "-c":
    exec(target, {"__name__": "__main__"})
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""


def run_python(args, cwd, *, probe: bool = False):
    """Run ``python <args>`` with this checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    argv = ("-c", PROBE, *args) if probe else args
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def finish_sweep(cwd) -> None:
    """Run the two-cell grid of ``COMMANDS['sweep_resume']`` to the end."""
    proc = run_python((*COMMANDS["sweep_resume"], "--serial"), cwd)
    assert "executed 2, resumed 0" in proc.stdout, proc.stdout


def loaded_modules(args, cwd) -> set[str]:
    """Every module loaded once ``python <args>`` has finished."""
    proc = run_python(args, cwd, probe=True)
    if "sweep" in args:
        assert "executed 0, resumed 2" in proc.stdout, proc.stdout
    return set(proc.stderr.rpartition("loaded:")[2].split())


def repro_modules(modules) -> list[str]:
    return sorted(m for m in modules if m == "repro" or m.startswith("repro."))


@pytest.fixture(scope="module")
def finished_dir(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("cold-start")
    finish_sweep(cwd)
    return cwd


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_neither_numpy_nor_the_engine(command, finished_dir):
    modules = loaded_modules(COMMANDS[command], finished_dir)
    assert "repro" in modules
    assert "numpy" not in modules
    assert not [m for m in modules if m.startswith("repro.simulation")]


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.telemetry", "repro.faults", "repro.parallel", "repro.kernels"],
)
def test_star_import_binds_every_exported_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = sys.modules[package]
    assert module.__all__
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)
        assert name in dir(module)


def test_unknown_names_still_raise():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.Nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from repro.telemetry import Nope", {})


def test_reexported_classes_keep_their_pickle_paths():
    import pickle

    from repro import QLECProtocol
    from repro.core.qlec import QLECProtocol as Defined

    assert QLECProtocol is Defined
    assert QLECProtocol.__module__ == "repro.core.qlec"
    assert type(pickle.loads(pickle.dumps(QLECProtocol()))) is Defined

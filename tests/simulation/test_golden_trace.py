"""Golden per-round traces for every registered protocol.

Five rounds of the Table-2 scenario under seed 0, pinned round by
round against ``golden_trace.json``.  Like the scalar golden pins,
these are *intentionally brittle*: any change to RNG stream layout,
the slot kernel's canonical draw order, energy pricing, or queue
semantics trips them for every protocol at once, which is the point —
a refactor that claims bit-exactness must leave this file untouched.

Regenerate after a deliberate behavioural change with::

    PYTHONPATH=src python tests/simulation/test_golden_trace.py
"""

import json
import pathlib

import pytest

from repro.analysis import PROTOCOLS
from repro.config import paper_config
from repro.simulation.engine import SimulationEngine

SNAPSHOT = pathlib.Path(__file__).with_name("golden_trace.json")
ROUNDS = 5
SEED = 0


def trace(protocol_name: str, backend: str = "numpy") -> list[dict]:
    cfg = paper_config(seed=SEED, rounds=ROUNDS)
    result = SimulationEngine(
        cfg, PROTOCOLS[protocol_name](), backend=backend
    ).run()
    # No fault plan: the null injector must not grow a fault summary.
    assert result.faults is None
    return [rs.row() for rs in result.per_round]


# The numpy reference backend must reproduce the pinned traces (the
# parameter keeps the test IDs of the pinned cases stable).
@pytest.mark.parametrize("backend", ["numpy"])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_golden_trace(name, backend):
    snapshot = json.loads(SNAPSHOT.read_text())
    assert name in snapshot, f"no golden trace for {name!r}; regenerate"
    got = trace(name, backend)
    want = snapshot[name]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key, val in w.items():
            if isinstance(val, float):
                assert g[key] == pytest.approx(val, rel=1e-9), (
                    name, g["round"], key,
                )
            else:
                assert g[key] == val, (name, g["round"], key)


if __name__ == "__main__":
    SNAPSHOT.write_text(
        json.dumps({n: trace(n) for n in sorted(PROTOCOLS)}, indent=1) + "\n"
    )
    print(f"wrote {SNAPSHOT}")

"""End-state digests pinning the multi-hop uplink bit for bit.

The Table-2 golden traces compare floats at rel 1e-9 and never arm a
routing substrate, so they cannot see an ulp moved on the CH->BS walk
that the tree and QSPT substrates and FCM's hierarchy take.  Each case
here runs a whole multi-hop scenario and hashes its end state: the
per-round rows, residual energies and liveness, the per-category spend,
the link estimates, the channel generator state, the packet arena's
free stack, the latency sample, and the routing and fault summaries.
Any change to the uplink's arithmetic or stream order moves a digest.

Regenerate after a deliberate behavioural change with::

    PYTHONPATH=src python tests/routing/test_multihop_pin.py
"""

import hashlib
import json

import pytest

from repro.analysis import PROTOCOLS
from repro.config import RoutingConfig, paper_config
from repro.core import QLECProtocol
from repro.kernels import available_backends
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenarios import build_scenario


def _scenario(name, seed, routing=None, rounds=None):
    def build():
        config, nodes, bs = build_scenario(name, seed)
        if routing is not None:
            config = config.replace(routing=RoutingConfig(kind=routing))
        if rounds is not None:
            config = config.replace(rounds=rounds)
        return config, QLECProtocol(), nodes, bs

    return build


def _fcm(mean_interarrival):
    def build():
        config = paper_config(mean_interarrival=mean_interarrival, rounds=20)
        return config, PROTOCOLS["fcm"](), None, None

    return build


CASES = {
    **{
        f"chaos-underwater-deep/{s}": _scenario("chaos-underwater-deep", s)
        for s in range(4)
    },
    "fcm/lambda2": _fcm(2.0),
    "fcm/lambda16": _fcm(16.0),
    "largearea-corner/tree": _scenario("largearea-corner", 0, "tree"),
    # QSPT's per-round Q-learning dominates its runtime; 10 rounds keep
    # the module under 10 s while still walking multi-hop paths.
    "largearea-corner/qspt": _scenario("largearea-corner", 0, "qspt", 10),
}

DIGESTS = {
    "chaos-underwater-deep/0": "050e5c4cd96b03771d050bd21784d9ade56d9670309012f0c0d713b10b129520",
    "chaos-underwater-deep/1": "d40556aaeb051cb12df7960cee48819cfd2897db4efd17cc73bf457591fdd38d",
    "chaos-underwater-deep/2": "190a7b38ec71a4bad03f8031f0c7e0f9469394ad28a18792396ad180501fcfc9",
    "chaos-underwater-deep/3": "510668e64caf9448129c24e0d05933c20bf0bff8d7f05c6eca0c481b91dd7648",
    "fcm/lambda16": "2943be9674c89a1c7234390bbd1a77427fbeec286b968c8d1b1f97e5539b8a47",
    "fcm/lambda2": "87b007a3203ae960e505c4efb645a60bb9144fada3000474f523f1612ef79881",
    "largearea-corner/qspt": "d52d6458fdfc70796cd7ce63629387c2f845e8b15fc04db7d21c3f737388803f",
    "largearea-corner/tree": "317981b2eb79ac29b377564f185fdb2cc6fa1d544eaefd4d9544a7d367171feb",
}


def end_state_digest(case: str, backend: str = "numpy") -> str:
    config, protocol, nodes, bs = CASES[case]()
    engine = SimulationEngine(
        config, protocol, nodes=nodes, bs=bs, backend=backend
    )
    result = engine.run()
    st = engine.state
    ledger = st.ledger
    arena = engine.arena
    h = hashlib.sha256()
    h.update(json.dumps(
        {
            "rows": [rs.row() for rs in result.per_round],
            "spent": [ledger.spent_tx, ledger.spent_rx, ledger.spent_da],
            "channel_rng": st.channel.rng.bit_generator.state,
            "latency_count": result.packets.latency_sample.count,
            "routing": result.extras.get("routing"),
            "faults": result.faults,
        },
        sort_keys=True,
    ).encode())
    for array in (
        ledger.residual,
        ledger.alive,
        st.link_estimator.estimates,
        # The LIFO free stack decides which rows the next round reuses.
        arena._free[: arena._n_free],
        result.packets.latency_sample.values,
    ):
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("case", sorted(CASES))
def test_multihop_end_state_pinned(case, backend):
    assert case in DIGESTS, f"no digest for {case!r}; regenerate"
    assert end_state_digest(case, backend) == DIGESTS[case], case


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{end_state_digest(case)}",')

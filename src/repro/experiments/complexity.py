"""Experiment E-C1: empirical check of the §4.3 complexity claims.

Lemma 2: the cluster-head-selection phase runs in O(RN).
Lemma 3 / Theorem 3: the Q-learning phase runs in O(kX), X being the
number of V-table updates until convergence.

We measure (a) wall-clock of the selection phase as N scales at fixed
R, with k ~ sqrt(N) — the growth should be ~linear; (b) the per-relax Q-evaluation count,
which must equal (k + 1) * updates exactly (each Send-Data evaluates
one Q per head plus the BS action); (c) the convergence sweep count
X of the expected-backup relaxation; and (d) the wall-clock of one
batched relay choice per sender across k at fixed N, for the full Q
block (O(k) per sender) and for the pruned greedy path that scores only
the heads its reward bound cannot rule out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..analysis import render_table
from ..config import DeploymentConfig, SimulationConfig, TrafficConfig, paper_config
from ..core import QLECProtocol
from ..core.routing import HeadGrid
from ..core.selection import ImprovedDEECSelector
from ..simulation.engine import SimulationEngine
from ..simulation.state import NetworkState

__all__ = [
    "SelectionScalingRow",
    "measure_selection_scaling",
    "measure_qlearning_updates",
    "QLearningCostRow",
    "RelayChoiceRow",
    "measure_relay_choice_scaling",
    "scaling_exponent",
    "render_complexity_report",
]


@dataclass(frozen=True)
class SelectionScalingRow:
    n_nodes: int
    k: int
    rounds: int
    seconds: float

    @property
    def seconds_per_node_round(self) -> float:
        return self.seconds / (self.n_nodes * self.rounds)


def measure_selection_scaling(
    n_values=(1_000, 10_000, 100_000),
    rounds: int = 20,
    k: int | None = None,
    seed: int = 0,
) -> list[SelectionScalingRow]:
    """Time Algorithm 2+3 alone (no data plane) across N, with
    ``k = round(sqrt(N))`` unless ``k`` is given."""
    rows = []
    for n in n_values:
        k_n = k if k is not None else max(1, round(float(n) ** 0.5))
        config = paper_config(seed=seed, rounds=rounds)
        config = config.replace(
            deployment=config.deployment.__class__(
                n_nodes=int(n),
                side=config.deployment.side,
                initial_energy=config.deployment.initial_energy,
            ),
            n_clusters=k_n,
        )
        state = NetworkState(config)
        selector = ImprovedDEECSelector(k_n)
        start = time.perf_counter()
        for r in range(rounds):
            state.round_index = r
            result = selector.select(state)
            state.mark_cluster_heads(result.heads)
        elapsed = time.perf_counter() - start
        rows.append(SelectionScalingRow(int(n), k_n, rounds, elapsed))
    return rows


@dataclass(frozen=True)
class QLearningCostRow:
    n_nodes: int
    k: int
    sweeps_to_converge: int
    v_updates: int
    q_evaluations: int

    @property
    def evaluations_per_update(self) -> float:
        """Must equal k + 1 exactly (Lemma 3's per-step cost)."""
        if self.v_updates == 0:
            return 0.0
        return self.q_evaluations / self.v_updates


def measure_qlearning_updates(
    n_nodes: int = 100, k: int = 5, seed: int = 0
) -> QLearningCostRow:
    """Relax the V table to convergence and count updates (the X)."""
    config = paper_config(seed=seed)
    config = config.replace(n_clusters=k)
    state = NetworkState(config)
    protocol = QLECProtocol()
    protocol.prepare(state)
    heads = protocol.select_cluster_heads(state)
    router = protocol.router
    assert router is not None
    members = np.setdiff1d(state.alive_indices(), heads)
    sweeps = router.relax(members, heads)
    return QLearningCostRow(
        n_nodes=n_nodes,
        k=int(heads.size),
        sweeps_to_converge=sweeps,
        v_updates=router.v.update_count,
        q_evaluations=router.q_evaluations,
    )


@dataclass(frozen=True)
class RelayChoiceRow:
    n_nodes: int
    k: int
    senders: int
    #: Median wall-clock of one batched relay choice over every sender.
    block_s: float
    pruned_s: float
    #: One build of the pruned path's head index (once per head set).
    index_s: float

    @property
    def block_us_per_sender(self) -> float:
        return self.block_s / self.senders * 1e6

    @property
    def pruned_us_per_sender(self) -> float:
        return self.pruned_s / self.senders * 1e6


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def measure_relay_choice_scaling(
    k_values=(32, 64, 128, 256, 512),
    n_nodes: int = 10_000,
    side: float = 150.0,
    repeats: int = 5,
    seed: int = 0,
) -> list[RelayChoiceRow]:
    """Time Algorithm 4 over every non-head sender at fixed N, per k.

    Each k runs one engine round first, so residuals, link estimates and
    the V table are those of a live run; then the same senders and the
    next round's heads are scored by the full Q block and by the pruned
    greedy path (with its head index built, as within a round).
    """
    rows = []
    for k in k_values:
        config = SimulationConfig(
            deployment=DeploymentConfig(
                n_nodes=n_nodes, side=side, initial_energy=2.0
            ),
            traffic=TrafficConfig(mean_interarrival=32.0),
            rounds=2,
            n_clusters=int(k),
            seed=seed,
            backend="numpy",
        )
        engine = SimulationEngine(config, QLECProtocol())
        engine.run_round()
        state, protocol = engine.state, engine.protocol
        router = protocol.router
        heads = protocol.validate_heads(state, protocol.select_cluster_heads(state))
        senders = np.setdiff1d(state.alive_indices(), heads)

        def block():
            q, _, _ = router._q_block(senders, heads)
            router.policy.select_batch(q, None)

        router._choose_pruned(senders, heads, None)  # builds the index
        rows.append(RelayChoiceRow(
            n_nodes=n_nodes,
            k=int(heads.size),
            senders=int(senders.size),
            block_s=_median_seconds(block, repeats),
            pruned_s=_median_seconds(
                lambda: router._choose_pruned(senders, heads, None), repeats
            ),
            index_s=_median_seconds(
                lambda: HeadGrid(heads, state.nodes.columns.take(heads, axis=1)),
                repeats,
            ),
        ))
    return rows


def scaling_exponent(ks, seconds) -> float:
    """Least-squares slope of log(seconds) against log(k) (or log(N))."""
    return float(np.polyfit(np.log(ks), np.log(seconds), 1)[0])


def render_complexity_report(
    selection: list[SelectionScalingRow],
    qlearning: QLearningCostRow,
    relay: list[RelayChoiceRow] | None = None,
) -> str:
    sel_rows = [
        {
            "N": r.n_nodes,
            "k": r.k,
            "R": r.rounds,
            "seconds": r.seconds,
            "us / (N*R)": r.seconds_per_node_round * 1e6,
        }
        for r in selection
    ]
    q_rows = [
        {
            "N": qlearning.n_nodes,
            "k": qlearning.k,
            "sweeps (X/|B|)": qlearning.sweeps_to_converge,
            "V updates (X)": qlearning.v_updates,
            "Q evals": qlearning.q_evaluations,
            "Q evals / update": qlearning.evaluations_per_update,
        }
    ]
    sel_text = render_table(sel_rows, precision=6,
                            title="Lemma 2 — selection phase scaling (O(RN))")
    if len({r.n_nodes for r in selection}) > 1:
        exponent = scaling_exponent(
            [r.n_nodes for r in selection], [r.seconds for r in selection]
        )
        sel_text += (
            f"\nfitted exponent in N: {exponent:.2f}"
            + "\n(per-candidate loops and a full pool sort, before the exact"
            + "\n spaced election: 0.70 over N = 10^3..10^5, k = sqrt(N), R = 20,"
            + "\n on a 2-vCPU Xeon host)"
        )
    return (
        sel_text
        + "\n\n"
        + render_table(q_rows, precision=3,
                       title="Lemma 3 — Q-learning cost (O(kX))")
        + ("" if not relay else "\n\n" + _render_relay(relay))
    )


def _render_relay(relay: list[RelayChoiceRow]) -> str:
    rows = [
        {
            "k": r.k,
            "senders": r.senders,
            "block us/sender": r.block_us_per_sender,
            "pruned us/sender": r.pruned_us_per_sender,
            "speedup": r.block_s / r.pruned_s,
            "index build ms": r.index_s * 1e3,
        }
        for r in relay
    ]
    ks = [r.k for r in relay]
    block = scaling_exponent(ks, [r.block_s for r in relay])
    pruned = scaling_exponent(ks, [r.pruned_s for r in relay])
    return (
        render_table(
            rows, precision=3,
            title=f"Lemma 3 — relay choice per sender across k "
            f"(N={relay[0].n_nodes})",
        )
        + f"\nfitted exponent in k: full block {block:.2f}, pruned {pruned:.2f}"
        + "\n(Q evaluations stay k+1 per sender, the logical count of Lemma 3;"
        + "\n the pruned path computes only the heads a reward bound cannot"
        + "\n rule out, bit-identically)"
    )

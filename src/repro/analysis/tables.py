"""Plain-text table rendering for experiment reports.

The benchmark harness regenerates every figure of the paper as an
ASCII table (series per protocol, one row per network condition), so
results are diffable and readable in CI logs without plotting
dependencies.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["render_table", "render_series", "render_kv", "render_telemetry"]


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render dict rows as a fixed-width ASCII table.

    Parameters
    ----------
    rows:
        Sequence of mappings; missing keys render as "-".
    columns:
        Column order; defaults to the keys of the first row.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [
        [_fmt(row.get(c, "-"), precision) for c in cols] for row in rows
    ]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)
    ]
    sep = "-+-".join("-" * w for w in widths)
    header = " | ".join(c.ljust(w) for c, w in zip(cols, widths))
    body = "\n".join(
        " | ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rendered
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, sep, body])
    return "\n".join(parts)


def render_series(
    x_label: str,
    x_values: Sequence[Any],
    series: Mapping[str, Sequence[Any]],
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render a figure-like dataset: one x column, one column per series.

    This is the shape of each panel of the paper's Fig. 3: x = network
    condition (lambda), one line per protocol.
    """
    lengths = {len(v) for v in series.values()}
    if lengths and lengths != {len(x_values)}:
        raise ValueError("every series must match the length of x_values")
    rows = []
    for i, x in enumerate(x_values):
        row = {x_label: x}
        for name, values in series.items():
            row[name] = values[i]
        rows.append(row)
    return render_table(rows, precision=precision, title=title)


def render_kv(pairs: Mapping[str, Any], precision: int = 4, title: str | None = None) -> str:
    """Render a key/value block (experiment headers, config echoes)."""
    width = max((len(k) for k in pairs), default=0)
    lines = [f"{k.ljust(width)} : {_fmt(v, precision)}" for k, v in pairs.items()]
    if title:
        lines.insert(0, title)
    return "\n".join(lines)


#: Pipeline order of the engine's phase taxonomy (docs/observability.md);
#: phases outside this list render after it, alphabetically.
PHASE_ORDER = (
    "setup", "ch_select", "generate", "relay_choice", "discharge",
    "channel", "queue_offer", "estimator", "service", "uplink", "round_end",
)


def _metric_value(m: Mapping[str, Any]) -> Any:
    """The scalar a metric mapping renders as.

    Counters carry ``value``; gauges carry ``total`` (among others).
    Metric names are an open taxonomy — new producers add names under
    existing prefixes — so the renderer must not assume any particular
    kind behind a prefix: an unrecognized shape renders as 0 instead of
    raising.
    """
    if "value" in m:
        return m["value"]
    if "total" in m:
        return m["total"]
    return 0


def render_telemetry(
    snapshot: Mapping[str, Mapping[str, Any]],
    title: str | None = "Telemetry breakdown",
) -> str:
    """Render a telemetry metric snapshot as the per-phase breakdown.

    Three blocks: wall-clock per pipeline phase (with its share of the
    attributed time and the coverage of measured round time), energy by
    radio category, and packets by terminal outcome — the where-does-
    time/energy/loss-go view the sharding and kernel roadmap items
    need.

    Tolerant of unknown metric names and shapes by design: snapshots
    merged from newer producers must still render (never ``KeyError``).
    """
    if not snapshot:
        return (title + "\n" if title else "") + "(no telemetry)"
    blocks: list[str] = []

    phases = {
        name.removeprefix("time/phase/"): _metric_value(m)
        for name, m in snapshot.items()
        if name.startswith("time/phase/")
    }
    if phases:
        total = sum(phases.values())
        ordered = [p for p in PHASE_ORDER if p in phases]
        ordered += sorted(set(phases) - set(ordered))
        rows = [
            {
                "phase": p,
                "time_s": phases[p],
                "share": phases[p] / total if total else 0.0,
            }
            for p in ordered
        ]
        rows.append({"phase": "(sum)", "time_s": total, "share": 1.0})
        block = render_table(rows, precision=4, title=title)
        round_time = snapshot.get("time/round")
        if round_time and round_time.get("count"):
            coverage = total / round_time["total"] if round_time["total"] else 0.0
            block += (
                f"\nphase coverage: {coverage:.1%} of "
                f"{round_time['total']:.4f}s over {round_time['count']} rounds"
            )
        blocks.append(block)
    elif title:
        blocks.append(title)

    energy = {
        name.removeprefix("energy/").removesuffix("_j"): _metric_value(m)
        for name, m in snapshot.items()
        if name.startswith("energy/")
    }
    if energy:
        blocks.append(
            render_kv(energy, precision=6, title="energy by category [J]")
        )

    packets = {
        name.removeprefix("packets/"): _metric_value(m)
        for name, m in snapshot.items()
        if name.startswith("packets/")
    }
    if packets:
        blocks.append(render_kv(packets, title="packets by outcome"))

    routing = {
        name.removeprefix("routing/"): m
        for name, m in snapshot.items()
        if name.startswith("routing/")
    }
    if routing:
        hops = routing.pop("hops", None)
        counters = {name: _metric_value(m) for name, m in sorted(routing.items())}
        if counters:
            blocks.append(render_kv(counters, title="routing counters"))
        if hops is not None and hops.get("count"):
            edges = hops.get("edges", [])
            buckets = hops.get("buckets", [])
            labels = []
            prev = None
            for e in edges:
                lo = "<=" if prev is None else f"{_fmt(prev, 0)}<"
                labels.append(f"{lo}{_fmt(float(e), 0)}")
                prev = float(e)
            labels.append(f">{_fmt(prev, 0)}" if prev is not None else ">")
            rows = [
                {"hops": lab, "frames": n}
                for lab, n in zip(labels, buckets)
                if n
            ]
            block = render_table(rows, title="hop-count histogram")
            mean = hops["total"] / hops["count"]
            block += f"\nmean hops: {mean:.3f} over {hops['count']} frames"
            blocks.append(block)

    attempts = snapshot.get("channel/attempts")
    n_attempts = _metric_value(attempts) if attempts else 0
    if n_attempts:
        acks = snapshot.get("channel/acks")
        n_acks = _metric_value(acks) if acks else 0
        blocks.append(
            f"channel: {n_acks}/{n_attempts} attempts ACKed "
            f"({n_acks / n_attempts:.1%})"
        )
    return "\n\n".join(blocks)

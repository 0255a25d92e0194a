"""One-link batches: ``Channel.attempt_link`` and
``LinkEstimator.update_link`` against the scalar calls they replace.

The multi-hop uplink pushes all of a head's frames over one hop at once;
these properties hold it to m scalar calls bit for bit, on twin objects
built in the same state.  Because the scalar calls are now the batches'
one-element case, each property also checks a reference copy of the
scalar arithmetic written out here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RadioConfig
from repro.energy.radio import FirstOrderRadio
from repro.network.channel import Channel, LinkEstimator, delivery_probability
from repro.telemetry import Telemetry

D0 = RadioConfig().d0
N = 4  # nodes 0..3; index 4 is the BS (node_factor keeps it at 1.0)


def _channel(seed, blackout, degrade, factors):
    tel = Telemetry()
    ch = Channel(
        FirstOrderRadio(), np.random.default_rng(seed), blackout=blackout
    )
    ch.bind_telemetry(tel)
    ch.degrade = degrade
    if factors is not None:
        ch.node_factor = np.array([*factors, 1.0])
    return ch, tel


def _reference_attempt(ch, distance, sender, target):
    """One scalar trial, spelled out: the curve, then the global
    degrade, then each endpoint's factor, against one fresh uniform."""
    if ch.blackout:
        return False
    p = delivery_probability(distance, D0, ch.floor, ch.sharpness)
    if ch.degrade != 1.0:
        p = p * ch.degrade
    if ch.node_factor is not None:
        if sender is not None:
            p = p * ch.node_factor[sender]
        if target is not None:
            p = p * ch.node_factor[target]
    return bool(ch.rng.random() < p)


def _counters(tel):
    return (
        tel.registry.counter("channel/attempts").value,
        tel.registry.counter("channel/acks").value,
    )


class TestAttemptLink:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        distance=st.floats(min_value=0.0, max_value=8 * D0),
        m=st.integers(min_value=0, max_value=12),
        blackout=st.booleans(),
        degrade=st.sampled_from([1.0, 0.5, 0.123]),
        factors=st.none() | st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=N, max_size=N
        ),
        sender=st.none() | st.integers(min_value=0, max_value=N - 1),
        target=st.none() | st.integers(min_value=0, max_value=N),
        prefix=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_attempts(
        self, seed, distance, m, blackout, degrade, factors, sender, target,
        prefix,
    ):
        (ref, _), (scalar, tel_s), (batch, tel_b) = (
            _channel(seed, blackout, degrade, factors) for _ in range(3)
        )
        # Start all three mid-stream, as the engine does.
        for ch in (ref, scalar, batch):
            ch.attempt_batch(np.full(prefix, distance))
        attempts, acks = _counters(tel_b)
        want = [_reference_attempt(ref, distance, sender, target)
                for _ in range(m)]
        calls = [scalar.attempt(distance, sender, target) for _ in range(m)]
        got = batch.attempt_link(distance, m, sender, target)
        assert got.dtype == bool and got.shape == (m,)
        assert got.tolist() == calls == want
        state = batch.rng.bit_generator.state
        assert state == scalar.rng.bit_generator.state
        assert state == ref.rng.bit_generator.state
        assert _counters(tel_b) == _counters(tel_s)
        assert _counters(tel_b) == (attempts + m, acks + sum(want))

    def test_blackout_draws_nothing(self):
        ch, tel = _channel(7, True, 1.0, None)
        mark = ch.rng.bit_generator.state
        assert not ch.attempt_link(10.0, 5).any()
        assert ch.rng.bit_generator.state == mark
        assert _counters(tel) == (5, 0)


class TestUpdateLink:
    @given(
        shared=st.booleans(),
        alpha=st.sampled_from([0.2, 0.05, 0.77, 1.0]),
        warmup=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=N - 1),
                st.integers(min_value=0, max_value=N),
                st.booleans(),
            ),
            max_size=10,
        ),
        node=st.integers(min_value=0, max_value=N - 1),
        target=st.integers(min_value=0, max_value=N),
        outcomes=st.lists(st.booleans(), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_updates(
        self, shared, alpha, warmup, node, target, outcomes
    ):
        scalar, batch = (
            LinkEstimator(N, N + 1, alpha=alpha, shared=shared)
            for _ in range(2)
        )
        for est in (scalar, batch):
            for n, t, ok in warmup:
                est.update(n, t, ok)
        # Reference: the numpy EWMA step on a dense copy (a shared
        # estimate moves its whole column).
        ref = np.array(batch.estimates)
        cell = (slice(None) if shared else node, target)
        for ok in outcomes:
            ref[cell] += alpha * ((1.0 if ok else 0.0) - ref[cell])
            scalar.update(node, target, ok)
        batch.update_link(node, target, np.array(outcomes, dtype=bool))
        assert batch.estimates.tobytes() == scalar.estimates.tobytes()
        assert batch.estimates.tobytes() == ref.tobytes()

"""Tests for the vectorized battery ledger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.battery import EnergyLedger


def make_ledger(n=5, initial=1.0, death_line=0.0):
    return EnergyLedger(np.full(n, initial), death_line=death_line)


class TestConstruction:
    def test_heterogeneous_initial(self):
        led = EnergyLedger(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(led.initial, [1.0, 2.0, 3.0])

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            EnergyLedger(np.array([1.0, 0.0]))

    def test_rejects_initial_below_death_line(self):
        with pytest.raises(ValueError):
            EnergyLedger(np.array([1.0, 0.05]), death_line=0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EnergyLedger(np.array([]))

    def test_views_are_read_only(self):
        led = make_ledger()
        with pytest.raises(ValueError):
            led.residual[0] = 0.0
        with pytest.raises(ValueError):
            led.alive[0] = False


class TestDischarge:
    def test_single_node(self):
        led = make_ledger()
        led.discharge(2, 0.25, "tx")
        assert led.residual[2] == pytest.approx(0.75)
        assert led.residual[0] == 1.0

    def test_vectorized_mask(self):
        led = make_ledger()
        mask = np.array([True, False, True, False, True])
        led.discharge(mask, 0.1, "rx")
        np.testing.assert_allclose(led.residual, [0.9, 1.0, 0.9, 1.0, 0.9])

    def test_floor_at_zero(self):
        led = make_ledger()
        led.discharge(0, 5.0, "tx")
        assert led.residual[0] == 0.0

    def test_death_at_death_line(self):
        led = make_ledger(death_line=0.2)
        led.discharge(0, 0.85, "tx")
        assert not led.is_alive(0)
        assert led.any_dead

    def test_dead_node_frozen(self):
        led = make_ledger(death_line=0.5)
        led.discharge(0, 0.6, "tx")
        frozen = led.residual[0]
        led.discharge(0, 0.2, "tx")
        assert led.residual[0] == frozen

    def test_negative_amount_rejected(self):
        led = make_ledger()
        with pytest.raises(ValueError):
            led.discharge(0, -0.1)

    def test_unknown_category_rejected(self):
        led = make_ledger()
        with pytest.raises(ValueError):
            led.discharge(0, 0.1, "warp")

    def test_category_accounting_sums_to_consumed(self):
        led = make_ledger()
        led.discharge(0, 0.1, "tx")
        led.discharge(1, 0.2, "rx")
        led.discharge(2, 0.05, "da")
        assert led.spent_tx + led.spent_rx + led.spent_da == pytest.approx(
            led.total_consumed
        )

    def test_clipped_discharge_records_actual_spend(self):
        """When a node floors at zero, only the real joules count."""
        led = make_ledger(initial=0.3)
        led.discharge(0, 1.0, "tx")
        assert led.spent_tx == pytest.approx(0.3)
        assert led.total_consumed == pytest.approx(0.3)


class TestDerived:
    def test_consumption_ratio(self):
        led = EnergyLedger(np.array([1.0, 2.0]))
        led.discharge(0, 0.5, "tx")
        led.discharge(1, 0.5, "tx")
        np.testing.assert_allclose(led.consumption_ratio(), [0.5, 0.25])

    def test_average_energy_counts_dead_nodes(self):
        led = make_ledger(n=2, death_line=0.5)
        led.discharge(0, 0.8, "tx")  # dies with 0.2 left
        assert led.average_energy() == pytest.approx((0.2 + 1.0) / 2)

    def test_snapshot_is_a_copy(self):
        led = make_ledger()
        snap = led.snapshot()
        led.discharge(0, 0.5, "tx")
        assert snap[0] == 1.0

    def test_n_alive(self):
        led = make_ledger(n=3, death_line=0.9)
        led.discharge(1, 0.5, "tx")
        assert led.n_alive == 2


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.floats(min_value=0.0, max_value=0.4),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_never_negative_and_monotone(self, ops):
        """Property: residuals stay in [0, initial] and never increase."""
        led = make_ledger(n=8, initial=1.0, death_line=0.1)
        prev = led.snapshot()
        for idx, amount in ops:
            led.discharge(idx, amount, "tx")
            cur = led.snapshot()
            assert np.all(cur >= 0.0)
            assert np.all(cur <= prev + 1e-12)
            prev = cur
        assert led.total_consumed == pytest.approx(
            led.total_initial - led.total_residual
        )


def _ledger_state(led):
    return (
        led.residual.tobytes(),
        led.alive.tobytes(),
        led.spent_tx.hex(),
        led.spent_rx.hex(),
        led.spent_da.hex(),
        led.deaths_by_cause(),
        led.total_deaths,
    )


class TestDischargeRepeat:
    """``discharge_repeat`` is m scalar ``discharge`` calls, bit for bit."""

    @staticmethod
    def _twins(initial, death_line, pre):
        """Two ledgers in the same state after the same warm-up charges."""
        out = []
        for _ in range(2):
            led = EnergyLedger(np.asarray(initial), death_line=death_line)
            for idx, amount, cat in pre:
                led.discharge(idx, amount, cat)
            out.append(led)
        return out

    def _check(self, initial, death_line, pre, idx, amount, m, category):
        scalar, batch = self._twins(initial, death_line, pre)
        for _ in range(m):
            scalar.discharge(idx, amount, category)
        batch.discharge_repeat(idx, amount, m, category)
        assert _ledger_state(batch) == _ledger_state(scalar)

    @given(
        initial=st.lists(
            st.floats(min_value=0.3, max_value=2.0), min_size=1, max_size=4
        ),
        death_line=st.sampled_from([0.0, 0.05, 0.2]),
        pre=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.0, max_value=0.5),
                st.sampled_from(["tx", "rx", "da"]),
            ),
            max_size=6,
        ),
        idx=st.integers(min_value=0, max_value=3),
        amount=st.floats(min_value=0.0, max_value=0.7),
        m=st.integers(min_value=0, max_value=12),
        category=st.sampled_from(["tx", "rx", "da"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_calls(
        self, initial, death_line, pre, idx, amount, m, category
    ):
        n = len(initial)
        pre = [(i % n, a, c) for i, a, c in pre]
        self._check(initial, death_line, pre, idx % n, amount, m, category)

    @pytest.mark.parametrize("category", ["tx", "rx", "da"])
    def test_death_line_crossed_mid_burst(self, category):
        # 1.0 - 3 * 0.25 = 0.25 <= 0.3: the third charge kills the node
        # and the last two are skipped.
        scalar, batch = self._twins([1.0, 1.0], 0.3, [])
        for _ in range(5):
            scalar.discharge(0, 0.25, category)
        batch.discharge_repeat(0, 0.25, 5, category)
        assert _ledger_state(batch) == _ledger_state(scalar)
        assert not batch.is_alive(0)
        assert batch.deaths_by_cause() == {"battery": 1}

    def test_clamps_at_zero(self):
        self._check([0.5, 1.0], 0.0, [], 0, 0.3, 4, "tx")

    def test_already_dead_node_is_frozen(self):
        scalar, batch = self._twins([1.0, 1.0], 0.0, [])
        for led in (scalar, batch):
            led.force_kill(1)
        for _ in range(3):
            scalar.discharge(1, 0.1, "rx")
        batch.discharge_repeat(1, 0.1, 3, "rx")
        assert _ledger_state(batch) == _ledger_state(scalar)
        assert batch.residual[1] == 1.0
        assert batch.spent_rx == 0.0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            make_ledger().discharge_repeat(0, -0.1, 3, "tx")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            make_ledger().discharge_repeat(0, 0.1, 3, "bogus")

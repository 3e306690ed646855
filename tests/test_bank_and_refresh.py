"""Tests for the bank state machine and the auto-refresh engine."""

from __future__ import annotations

import pytest

from repro.dram.bank import Bank, BankStats
from repro.dram.refresh import AutoRefreshEngine
from repro.dram.timing import DDR4_2400


class TestBankTiming:
    def make(self) -> Bank:
        return Bank(bank_id=0, rows=1024, timings=DDR4_2400)

    def test_activate_returns_data_ready_time(self):
        bank = self.make()
        ready = bank.activate(5, 1000.0)
        assert ready == pytest.approx(1000.0 + DDR4_2400.trcd)
        assert bank.open_row == 5

    def test_trc_enforced_between_acts(self):
        bank = self.make()
        bank.activate(5, 0.0)
        with pytest.raises(ValueError):
            bank.activate(6, 10.0)
        bank.activate(6, DDR4_2400.trc)  # exactly tRC later is legal

    def test_earliest_activate_accounts_for_refresh(self):
        bank = self.make()
        done = bank.auto_refresh(0.0)
        assert done == pytest.approx(DDR4_2400.trfc)
        assert bank.earliest_activate(0.0) == pytest.approx(DDR4_2400.trfc)

    def test_auto_refresh_closes_row_and_queues_behind_busy(self):
        bank = self.make()
        bank.activate(5, 0.0)
        bank.auto_refresh(100.0)
        done = bank.auto_refresh(110.0)
        trfc = DDR4_2400.trfc
        assert done == (100.0 + trfc) + trfc
        assert bank.open_row is None
        assert bank.stats.auto_refreshes == 2
        assert bank.stats.refresh_busy_ns == (0.0 + trfc) + trfc

    def test_nrr_blocks_for_rows_times_trc_plus_trp(self):
        bank = self.make()
        done = bank.nearby_row_refresh(4, 100.0)
        expected = 100.0 + 4 * DDR4_2400.trc + DDR4_2400.trp
        assert done == pytest.approx(expected)
        assert bank.stats.nrr_commands == 1
        assert bank.stats.nrr_rows_refreshed == 4
        assert bank.stats.nrr_busy_ns == pytest.approx(
            4 * DDR4_2400.trc + DDR4_2400.trp
        )

    def test_nrr_closes_open_row(self):
        bank = self.make()
        bank.activate(5, 0.0)
        bank.nearby_row_refresh(2, 50.0)
        assert bank.open_row is None

    def test_access_hit_miss_accounting(self):
        bank = self.make()
        bank.activate(5, 0.0)
        assert bank.access(5, 20.0) is True
        assert bank.access(6, 25.0, is_write=True) is False
        assert bank.stats.row_buffer_hits == 1
        assert bank.stats.reads == 1
        assert bank.stats.writes == 1

    def test_stats_merge(self):
        a = BankStats(activations=1, nrr_rows_refreshed=2)
        b = BankStats(activations=3, nrr_rows_refreshed=4)
        merged = a.merged_with(b)
        assert merged.activations == 4
        assert merged.nrr_rows_refreshed == 6

    def test_row_validation(self):
        bank = self.make()
        with pytest.raises(IndexError):
            bank.activate(1024, 0.0)


class TestAutoRefresh:
    def test_covers_all_rows_exactly_once_per_window(self):
        engine = AutoRefreshEngine(rows=65536, timings=DDR4_2400)
        seen = [0] * 65536
        for event in engine.pop_due(DDR4_2400.trefw):
            for row in event.rows:
                seen[row] += 1
        # One full window must refresh every row at least once.
        assert min(seen) >= 1
        # And the schedule is nearly uniform (at most twice).
        assert max(seen) <= 2

    def test_rows_per_command(self):
        engine = AutoRefreshEngine(rows=65536, timings=DDR4_2400)
        # 65536 rows / 8205 commands -> ceil = 8 rows per command.
        assert engine.rows_per_command == 8

    def test_pop_due_is_incremental(self):
        engine = AutoRefreshEngine(rows=1024, timings=DDR4_2400)
        first = list(engine.pop_due(3 * DDR4_2400.trefi))
        assert len(first) == 3
        again = list(engine.pop_due(3 * DDR4_2400.trefi))
        assert again == []  # already consumed
        more = list(engine.pop_due(4 * DDR4_2400.trefi))
        assert len(more) == 1

    def test_peek_does_not_consume(self):
        engine = AutoRefreshEngine(rows=1024, timings=DDR4_2400)
        preview = engine.peek_rows_for_next()
        assert list(preview) == list(engine.peek_rows_for_next())

    def test_wraps_around_row_space(self):
        engine = AutoRefreshEngine(rows=100, timings=DDR4_2400)
        events = list(engine.pop_due(200 * DDR4_2400.trefi))
        touched = [row for e in events for row in e.rows]
        assert set(touched) == set(range(100))

    def test_row_refresh_period_is_trefw(self):
        engine = AutoRefreshEngine(rows=1024, timings=DDR4_2400)
        period = engine.row_refresh_period_ns(5)
        assert period == pytest.approx(DDR4_2400.trefw, rel=0.001)

"""The per-query counter families balance the machine-wide totals.

The scheduler charges every chunk's memory traffic and time twice: the
machine writes the per-node/per-socket/per-core families (``imc_bytes``,
``l3_miss``, ``ht_tx_bytes``, ``busy_time``) and the scheduler writes
the per-query ones (``query_imc_bytes``, ``query_l3_miss``,
``query_ht_bytes``, ``query_busy_time``).  Once the build's counters are
reset, all work is query work, so the two sides must agree:

* bytes and misses exactly (integer-valued floats, far below 2**53);
* busy time to within 1e-9 relative (the two sides sum the same chunk
  times in different orders);
* with AutoNUMA on, page migrations cross the interconnect without a
  query to charge, so the HT side adds one page per migration;
* no core is busy for longer than the simulated clock has run.
"""

from __future__ import annotations

import pytest

from repro.db.clients import repeat_stream
from repro.experiments import ablations, common
from repro.runner import cache as result_cache

Q6 = "sel_45pct"


@pytest.fixture(autouse=True)
def _no_result_cache():
    previous = result_cache._CURRENT
    result_cache.configure(False)
    yield
    result_cache.configure(previous)


def _assert_balanced(sut) -> None:
    counters = sut.os.counters
    page_bytes = sut.os.machine.memory.page_bytes
    migrated = counters.total("numa_page_migrations") * page_bytes
    assert counters.total("imc_bytes") > 0
    assert counters.total("query_imc_bytes") == counters.total("imc_bytes")
    assert counters.total("query_l3_miss") == counters.total("l3_miss")
    assert (counters.total("query_ht_bytes") + migrated
            == counters.total("ht_tx_bytes"))
    assert counters.total("query_busy_time") == pytest.approx(
        counters.total("busy_time"), rel=1e-9, abs=0.0)
    busy = counters.by_index("busy_time")
    assert busy and max(busy.values()) <= sut.os.now


@pytest.mark.parametrize("mode", [None, "adaptive"])
def test_q6_query_families_balance_machine_totals(mode):
    sut = common.build_system(mode=mode, seed=42)
    sut.run_clients(16, repeat_stream(Q6, 1))
    _assert_balanced(sut)
    if mode is None:
        assert sut.os.counters.total("imc_bytes") == 2_901_344_256


def test_tpch_query_families_balance_machine_totals():
    sut = common.build_system(seed=42)
    rows = (("q1", "q3"), ("q9", "q18"), ("q5", "q21"), ("q13", "q2"))
    sut.run_clients(4, lambda client: rows[client])
    assert len(sut.os.counters.by_index("query_imc_bytes")) == 8
    _assert_balanced(sut)


def test_autonuma_migrations_close_the_ht_balance(monkeypatch):
    systems = []
    measure = ablations._measure

    def keep(sut, n_clients, reps):
        systems.append((sut.os.scheduler.config.numa_balancing, sut))
        return measure(sut, n_clients, reps)

    monkeypatch.setattr(ablations, "_measure", keep)
    ablations.autonuma(n_clients=16, reps=1)
    assert [balancing for balancing, _ in systems] == [
        False, True, False, True]
    for balancing, sut in systems:
        _assert_balanced(sut)
        migrations = sut.os.counters.total("numa_page_migrations")
        assert (migrations > 0) == balancing

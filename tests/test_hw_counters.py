"""Counter bank and snapshots: totals and deltas."""

import pytest

from repro.db.clients import repeat_stream
from repro.experiments import common
from repro.hardware.counters import CounterBank
from repro.runner import cache as result_cache
from repro.sim.state import SimState


@pytest.fixture
def bank():
    return CounterBank()


def test_add_and_get(bank):
    bank.add("l3_miss", 0, 5)
    bank.add("l3_miss", 0, 2)
    assert bank.get("l3_miss", 0) == 7
    assert bank.get("l3_miss", 1) == 0


def test_increment(bank):
    bank.increment("tasks", 3)
    bank.increment("tasks", 3)
    assert bank.get("tasks", 3) == 2


def test_total_sums_family(bank):
    bank.add("imc_bytes", 0, 10)
    bank.add("imc_bytes", 1, 20)
    bank.add("ht_tx_bytes", 0, 99)
    assert bank.total("imc_bytes") == 30


def test_by_index(bank):
    bank.add("busy_time", 0, 1.5)
    bank.add("busy_time", 2, 0.5)
    assert bank.by_index("busy_time") == {0: 1.5, 2: 0.5}


def test_string_indices_for_query_attribution(bank):
    bank.add("query_ht_bytes", "q6", 4096)
    assert bank.get("query_ht_bytes", "q6") == 4096
    assert bank.total("query_ht_bytes") == 4096


def test_reset_zeroes_everything(bank):
    bank.add("l3_miss", 0, 5)
    bank.reset()
    assert bank.total("l3_miss") == 0


def test_snapshot_is_immutable_copy(bank):
    bank.add("l3_miss", 0, 5)
    snap = bank.snapshot(1.0)
    bank.add("l3_miss", 0, 5)
    assert snap.get("l3_miss", 0) == 5
    assert bank.get("l3_miss", 0) == 10


def test_snapshot_delta_and_rate(bank):
    bank.add("imc_bytes", 0, 100)
    early = bank.snapshot(1.0)
    bank.add("imc_bytes", 0, 300)
    late = bank.snapshot(3.0)
    assert late.delta(early, "imc_bytes", 0) == 300


def test_snapshot_family_delta_and_rate(bank):
    bank.add("imc_bytes", 0, 100)
    bank.add("imc_bytes", 1, 100)
    early = bank.snapshot(0.0)
    bank.add("imc_bytes", 1, 100)
    late = bank.snapshot(2.0)
    assert late.delta_total(early, "imc_bytes") == 100


# ---------------------------------------------------------------------
# family isolation: reductions are O(family), not O(all counters)


class _Landmine:
    """Stands in for another family; detonates if touched.

    A flat ``(name, index) -> float`` layout would scan *every* counter
    on ``total()``/``by_index()``.  Planting unreadable objects as
    unrelated families proves the reductions touch only the requested
    family.
    """

    def _boom(self, *_):
        raise AssertionError("reduction touched an unrelated family")

    __iter__ = __len__ = __getitem__ = __contains__ = _boom
    get = keys = values = items = copy = _boom


def _plant_landmines(families: dict) -> None:
    for noise in range(20):
        families[f"noise_{noise}"] = _Landmine()


def test_total_reads_only_the_requested_family(bank):
    bank.add("busy_time", 3, 1.5)
    bank.add("busy_time", 7, 2.5)
    snap = bank.snapshot(1.0)
    _plant_landmines(bank._families)
    _plant_landmines(snap._families)
    assert bank.total("busy_time") == 4.0
    assert bank.get("busy_time", 7) == 2.5
    assert snap.total("busy_time") == 4.0
    assert snap.get("busy_time", 7) == 2.5


def test_by_index_reads_only_the_requested_family(bank):
    bank.add("l3_miss", 0, 5.0)
    bank.add("l3_miss", 2, 7.0)
    snap = bank.snapshot(1.0)
    _plant_landmines(bank._families)
    _plant_landmines(snap._families)
    assert bank.by_index("l3_miss") == {0: 5.0, 2: 7.0}
    assert snap.by_index("l3_miss") == {0: 5.0, 2: 7.0}


def test_family_handle_survives_reset_and_keeps_slot_order(bank):
    handle = bank.family("busy_time")
    handle[9] += 1.0
    handle[4] += 2.0
    assert list(bank.by_index("busy_time")) == [9, 4]
    bank.reset()
    assert bank.total("busy_time") == 0.0
    # the same handle keeps writing into the (cleared) family
    handle[4] += 3.0
    assert bank.get("busy_time", 4) == 3.0
    assert list(bank.by_index("busy_time")) == [4]


def test_reset_leaves_earlier_snapshots_intact(bank):
    bank.add("l3_miss", 1, 5.0)
    snap = bank.snapshot(1.0)
    bank.reset()
    bank.add("l3_miss", 2, 9.0)
    # the pre-reset snapshot still reads the old counters and values
    assert snap.get("l3_miss", 1) == 5.0
    assert snap.by_index("l3_miss") == {1: 5.0}
    assert bank.by_index("l3_miss") == {2: 9.0}


# ---------------------------------------------------------------------
# the dict layout: reads never insert, first-write order survives


def _keys(bank: CounterBank) -> dict:
    return {name: list(family) for name, family in bank._families.items()}


def test_reads_never_insert(bank):
    handle = bank.family("l3_miss")
    handle[1] += 5.0
    snap = bank.snapshot(1.0)
    before = _keys(bank)
    assert bank.get("l3_miss", 7) == 0.0
    assert bank.get("no_such_family", 7) == 0.0
    assert handle[7] == 0.0
    assert bank.by_index("l3_miss") == {1: 5.0}
    assert bank.total("l3_miss") == 5.0
    assert snap.get("l3_miss", 7) == 0.0
    assert snap.get("no_such_family", 7) == 0.0
    bank.snapshot(2.0)
    assert _keys(bank) == before
    assert list(snap._families["l3_miss"]) == [1]


def test_first_write_order_survives_reset_snapshot_and_capture(bank):
    handle = bank.family("busy_time")
    for core, amount in ((5, 0.5), (2, 1.25), (9, 2), (2, 0.25)):
        handle[core] += amount
    expected = [(5, 0.5), (2, 1.5), (9, 2.0)]
    assert list(bank.by_index("busy_time").items()) == expected
    assert list(bank.snapshot(1.0).by_index("busy_time").items()) \
        == expected

    copy, copy_handle = SimState.capture((bank, handle)).restore()
    assert copy_handle is copy.family("busy_time")
    assert list(copy.by_index("busy_time").items()) == expected
    copy_handle[7] += 4.0
    copy_handle[5] += 1.0
    assert list(copy.by_index("busy_time").items()) \
        == [(5, 1.5), (2, 1.5), (9, 2.0), (7, 4.0)]
    # the fork never aliases the original
    assert list(bank.by_index("busy_time").items()) == expected

    bank.reset()
    handle[9] += 1.0
    handle[5] += 1.0
    assert list(bank.by_index("busy_time").items()) == [(9, 1.0), (5, 1.0)]


@pytest.fixture(scope="module")
def smoke_banks():
    """Counter banks after one small Q6 run and one small TPC-H run."""
    previous = result_cache._CURRENT
    result_cache.configure(False)
    try:
        base = common.warm_system(
            clients=4, stream=repeat_stream("sel_45pct", 1), seed=42)
        q6 = common.attach_controller(common.fork_system(base), "adaptive")
        q6.run_clients(4, repeat_stream("sel_45pct", 1))
        tpch = common.build_system(seed=42)
        rows = (("q1", "q3"), ("q9", "q18"), ("q5", "q21"), ("q13", "q2"))
        tpch.run_clients(4, lambda client: rows[client])
    finally:
        result_cache.configure(previous)
    return {"q6": q6.os.counters, "tpch": tpch.os.counters}


@pytest.mark.parametrize("run", ["q6", "tpch"])
def test_every_counter_value_is_a_python_float(smoke_banks, run):
    # numpy scalars must not leak into counters (and from there into
    # digests and pickles); the values are written unconverted
    bank = smoke_banks[run]
    assert bank.total("busy_time") > 0
    leaked = [(name, index, type(value).__name__)
              for name, family in bank._families.items()
              for index, value in family.items()
              if type(value) is not float]
    assert leaked == []

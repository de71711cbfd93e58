"""BATs and the catalog: page assignment, slicing, placement policies."""

import numpy as np
import pytest

from repro.db.bat import BAT
from repro.db.catalog import Catalog, Table
from repro.errors import DatabaseError
from repro.hardware.machine import Machine
from repro.hardware.prebuilt import small_numa
from repro.opsys.vm import VirtualMemory


@pytest.fixture
def machine():
    return Machine(small_numa())


class TestBAT:
    def test_sim_bytes_scaled(self):
        bat = BAT("x", np.zeros(1000), byte_scale=10.0)
        assert bat.real_bytes == 8000
        assert bat.sim_bytes == 80_000

    def test_rejects_2d(self):
        with pytest.raises(DatabaseError):
            BAT("x", np.zeros((2, 2)))

    def test_rejects_bad_scale(self):
        with pytest.raises(DatabaseError):
            BAT("x", np.zeros(4), byte_scale=0)

    def test_pages_require_loading(self, machine):
        bat = BAT("x", np.zeros(1000), byte_scale=100.0)
        with pytest.raises(DatabaseError):
            _ = bat.pages
        pages = bat.assign_pages(machine.memory)
        expected = -(-bat.sim_bytes // machine.memory.page_bytes)
        assert len(pages) == expected
        assert bat.loaded

    def test_double_assign_rejected(self, machine):
        bat = BAT("x", np.zeros(1000), byte_scale=100.0)
        bat.assign_pages(machine.memory)
        with pytest.raises(DatabaseError):
            bat.assign_pages(machine.memory)

    def test_page_slices_partition_exactly(self, machine):
        bat = BAT("x", np.zeros(100_000), byte_scale=10.0)
        bat.assign_pages(machine.memory)
        parts = [bat.page_slice(i, 3) for i in range(3)]
        joined = [p for part in parts for p in part]
        assert joined == list(bat.pages)

    def test_slice_bounds_checked(self, machine):
        bat = BAT("x", np.zeros(10))
        with pytest.raises(DatabaseError):
            bat.page_slice(3, 3)


class TestTable:
    def test_ragged_columns_rejected(self):
        with pytest.raises(DatabaseError):
            Table("t", {"a": np.zeros(3), "b": np.zeros(4)})

    def test_empty_table_rejected(self):
        with pytest.raises(DatabaseError):
            Table("t", {})

    def test_env_and_lookup(self):
        table = Table("t", {"a": np.arange(5)})
        assert "a" in table
        assert table.bat("a").n_rows == 5
        np.testing.assert_array_equal(table.env()["a"], np.arange(5))
        with pytest.raises(DatabaseError):
            table.bat("nope")

    def test_sim_bytes_sums_columns(self):
        table = Table("t", {"a": np.zeros(10), "b": np.zeros(10)},
                      byte_scale=2.0)
        assert table.sim_bytes == 2 * (10 * 8 * 2)


class TestCatalog:
    def _catalog(self):
        catalog = Catalog()
        catalog.add(Table("t", {"a": np.zeros(100_000)}, byte_scale=5.0))
        return catalog

    def test_duplicate_table_rejected(self):
        catalog = self._catalog()
        with pytest.raises(DatabaseError):
            catalog.add(Table("t", {"a": np.zeros(1)}))

    def test_unknown_table_rejected(self):
        with pytest.raises(DatabaseError):
            self._catalog().table("nope")

    def test_single_node_policy_places_everything_on_one_node(
            self, machine):
        catalog = self._catalog()
        vm = VirtualMemory(machine)
        catalog.load(vm, policy="single_node", loader_node=1)
        histogram = machine.memory.placement_histogram()
        assert histogram[1] > 0
        assert histogram[0] == 0

    def test_chunked_policy_spreads_across_nodes(self, machine):
        catalog = self._catalog()
        vm = VirtualMemory(machine)
        catalog.load(vm, policy="chunked")
        histogram = machine.memory.placement_histogram()
        assert all(count > 0 for count in histogram)

    def test_double_load_rejected(self, machine):
        catalog = self._catalog()
        vm = VirtualMemory(machine)
        catalog.load(vm)
        with pytest.raises(DatabaseError):
            catalog.load(vm)

    def test_unknown_policy_rejected(self, machine):
        catalog = self._catalog()
        with pytest.raises(DatabaseError):
            catalog.load(VirtualMemory(machine), policy="scattered")

    def test_add_after_load_rejected(self, machine):
        catalog = self._catalog()
        catalog.load(VirtualMemory(machine))
        with pytest.raises(DatabaseError):
            catalog.add(Table("u", {"x": np.zeros(1)}))

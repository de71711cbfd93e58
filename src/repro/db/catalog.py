"""Tables and the catalog, including base-data placement policies.

Loading a table does two things:

* reserve simulated pages for each column (:meth:`BAT.assign_pages`);
* **first-touch** those pages through the VM layer, which fixes their home
  nodes.  Two policies model the paper's two systems:

  - ``single_node`` — a single loader thread touches everything, so the
    whole database lands on one node (MonetDB behaviour; the paper's
    Fig 18a shows the OS then hammering socket S0);
  - ``chunked`` — each column is split into ``n_sockets`` contiguous chunks
    placed round-robin (the NUMA-aware SQL Server layout).
"""

from __future__ import annotations

import numpy as np

from ..errors import DatabaseError
from ..opsys.vm import VirtualMemory
from .bat import BAT


class Table:
    """A named set of equal-length BATs."""

    def __init__(self, name: str, columns: dict[str, np.ndarray],
                 byte_scale: float = 1.0):
        if not columns:
            raise DatabaseError(f"table {name!r} needs at least one column")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise DatabaseError(f"table {name!r} has ragged columns")
        self.name = name
        self.bats = {col: BAT(f"{name}.{col}", values, byte_scale)
                     for col, values in columns.items()}
        self.n_rows = lengths.pop()

    def __contains__(self, column: str) -> bool:
        return column in self.bats

    def bat(self, column: str) -> BAT:
        """The BAT backing ``column``."""
        if column not in self.bats:
            raise DatabaseError(
                f"table {self.name!r} has no column {column!r}")
        return self.bats[column]

    def env(self) -> dict[str, np.ndarray]:
        """Column name -> values mapping for expression evaluation."""
        return {col: bat.values for col, bat in self.bats.items()}

    def column_names(self) -> list[str]:
        """All column names, in definition order."""
        return list(self.bats)

    @property
    def sim_bytes(self) -> int:
        """Simulated footprint of the whole table."""
        return sum(bat.sim_bytes for bat in self.bats.values())


class Catalog:
    """All tables of one database instance."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._loaded = False

    def add(self, table: Table) -> None:
        """Register a table (before loading)."""
        if self._loaded:
            raise DatabaseError("catalog already loaded into memory")
        if table.name in self._tables:
            raise DatabaseError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        if name not in self._tables:
            raise DatabaseError(f"unknown table {name!r}")
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def loaded(self) -> bool:
        """Whether base pages have been placed."""
        return self._loaded

    def load(self, vm: VirtualMemory, policy: str = "single_node",
             loader_node: int = 0) -> None:
        """Assign and first-touch base pages for every table.

        Parameters
        ----------
        vm:
            The OS virtual-memory layer of the target machine.
        policy:
            ``"single_node"`` or ``"chunked"`` (see module docstring).
        loader_node:
            Home node for the ``single_node`` policy.
        """
        if self._loaded:
            raise DatabaseError("catalog already loaded")
        if policy not in ("single_node", "chunked"):
            raise DatabaseError(f"unknown placement policy {policy!r}")
        n_sockets = vm.machine.topology.n_sockets
        for table in self._tables.values():
            for bat in table.bats.values():
                pages = bat.assign_pages(vm.machine.memory)
                if policy == "single_node":
                    vm.touch_pages(pages, loader_node)
                else:
                    n = len(pages)
                    for chunk in range(n_sockets):
                        lo = (n * chunk) // n_sockets
                        hi = (n * (chunk + 1)) // n_sockets
                        if hi > lo:
                            vm.touch_pages(pages[lo:hi], chunk)
        self._loaded = True

    @property
    def sim_bytes(self) -> int:
        """Simulated footprint of the whole database."""
        return sum(t.sim_bytes for t in self._tables.values())

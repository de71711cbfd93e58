"""Binary Association Tables: MonetDB-style columns bound to simulated pages.

A :class:`BAT` couples the *real* numpy values of a column (used by the
oracle executor and to measure true selectivities) with the *simulated*
footprint of the same column at the paper's scale.  The two are decoupled by
``byte_scale``: data is generated at a small scale factor for speed, while
the simulated page count corresponds to the full 1 GB database, so cache
pressure and interconnect traffic behave like the paper's testbed.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatabaseError
from ..hardware.memory import MemorySystem


class BAT:
    """One column: real values plus a simulated page range."""

    def __init__(self, name: str, values: np.ndarray,
                 byte_scale: float = 1.0):
        if values.ndim != 1:
            raise DatabaseError(f"BAT {name!r} must be one-dimensional")
        if byte_scale <= 0:
            raise DatabaseError("byte_scale must be positive")
        self.name = name
        self.values = values
        self.byte_scale = byte_scale
        self._pages: range | None = None

    @property
    def n_rows(self) -> int:
        """Real row count of the generated data."""
        return len(self.values)

    @property
    def real_bytes(self) -> int:
        """Bytes of the in-memory numpy payload."""
        return self.values.nbytes

    @property
    def sim_bytes(self) -> int:
        """Bytes the column occupies in the *simulated* machine."""
        return int(self.real_bytes * self.byte_scale)

    @property
    def loaded(self) -> bool:
        """Whether simulated pages have been assigned."""
        return self._pages is not None

    @property
    def pages(self) -> range:
        """Simulated page ids backing this column."""
        if self._pages is None:
            raise DatabaseError(f"BAT {self.name!r} not loaded into memory")
        return self._pages

    def assign_pages(self, memory: MemorySystem) -> range:
        """Reserve simulated pages for the column (once)."""
        if self._pages is not None:
            raise DatabaseError(f"BAT {self.name!r} already loaded")
        self._pages = memory.allocate_bytes(max(self.sim_bytes, 1))
        return self._pages

    def page_slice(self, part: int, n_parts: int) -> range:
        """Pages of horizontal partition ``part`` out of ``n_parts``.

        Partitions follow the row split used by the Volcano executor: the
        page range is divided into ``n_parts`` nearly equal contiguous runs.
        """
        if not 0 <= part < n_parts:
            raise DatabaseError(f"partition {part}/{n_parts} out of range")
        pages = self.pages
        n = len(pages)
        start = (n * part) // n_parts
        stop = (n * (part + 1)) // n_parts
        return range(pages.start + start, pages.start + stop)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        loaded = f"pages={len(self._pages)}" if self._pages else "unloaded"
        return f"<BAT {self.name!r} rows={self.n_rows} {loaded}>"

"""Unit helpers and conversions used across the simulator.

Internally the simulator uses a single set of base units:

* **time** — seconds (floats; sub-microsecond resolution is never needed),
* **data** — bytes (ints where possible),
* **bandwidth** — bytes per second,
* **frequency** — hertz,
* **energy** — joules.

These helpers exist so that call sites read like the paper ("41.6 GB/s",
"6 MB L3", "2.8 GHz") instead of bare exponents.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

MILLISECOND = 1e-3

GHZ = 1e9


def kib(n: float) -> int:
    """Kibibytes to bytes."""
    return int(n * KIB)


def mib(n: float) -> int:
    """Mebibytes to bytes."""
    return int(n * MIB)


def gb_per_s(n: float) -> float:
    """Decimal gigabytes per second to bytes per second."""
    return n * GB


def ghz(n: float) -> float:
    """Gigahertz to hertz."""
    return n * GHZ


def msec(n: float) -> float:
    """Milliseconds to seconds."""
    return n * MILLISECOND

"""TPC-H schema conventions used by the generator and the query builders.

Strings are dictionary-encoded into small integers (the columnar engine is
numeric); dates are stored as **day indexes** counted from 1992-01-01 so
that interval arithmetic is plain integer math.  LIKE-style predicates over
free text (``%green%``, ``%special%requests%``...) are materialised as
boolean flag columns at generation time with the selectivities the official
dbgen word lists produce.
"""

from __future__ import annotations

import datetime

from ...errors import WorkloadError

#: rows per table at scale factor 1.0 (dbgen's numbers)
SCALE_FACTOR_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_001_215,
}

_EPOCH = datetime.date(1992, 1, 1)

#: last order date dbgen emits
MAX_ORDER_DATE = "1998-08-02"


def date_index(iso: str) -> int:
    """Days since 1992-01-01 for an ISO date string (query parameters)."""
    try:
        year, month, day = (int(part) for part in iso.split("-"))
        value = datetime.date(year, month, day)
    except ValueError as exc:
        raise WorkloadError(f"bad date literal {iso!r}") from exc
    return (value - _EPOCH).days


# ---------------------------------------------------------------------------
# dictionary encodings
# ---------------------------------------------------------------------------

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
    "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
    "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]

#: nation -> region mapping (dbgen's)
NATION_REGION = [0, 1, 1, 1, 4, 0, 3, 3, 2, 2,
                 4, 4, 2, 4, 0, 0, 0, 1, 2, 3,
                 4, 2, 3, 3, 1]

MKT_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                "MACHINERY"]

ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                    "5-LOW"]

SHIP_MODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]

SHIP_INSTRUCTS = ["COLLECT COD", "DELIVER IN PERSON", "NONE",
                  "TAKE BACK RETURN"]

RETURN_FLAGS = ["A", "N", "R"]
LINE_STATUS = ["F", "O"]

#: p_type = "<syllable1> <syllable2> <syllable3>", 6 x 5 x 5 = 150 codes;
#: code = s1 * 25 + s2 * 5 + s3
TYPE_SYLLABLE_1 = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL",
                   "STANDARD"]
TYPE_SYLLABLE_2 = ["ANODIZED", "BRUSHED", "BURNISHED", "PLATED",
                   "POLISHED"]
TYPE_SYLLABLE_3 = ["BRASS", "COPPER", "NICKEL", "STEEL", "TIN"]

#: p_container = "<size> <kind>", 5 x 8 = 40 codes; code = size * 8 + kind
CONTAINER_SIZES = ["JUMBO", "LG", "MED", "SM", "WRAP"]
CONTAINER_KINDS = ["BAG", "BOX", "CAN", "CASE", "DRUM", "JAR", "PACK",
                   "PKG"]

#: 25 brands, "Brand#MN" with M, N in 1..5; code = (M-1) * 5 + (N-1)
N_BRANDS = 25


def type_code(name: str) -> int:
    """Encode a full ``p_type`` string like ``"PROMO BRUSHED COPPER"``."""
    parts = name.split()
    if len(parts) != 3:
        raise WorkloadError(f"bad p_type {name!r}")
    try:
        s1 = TYPE_SYLLABLE_1.index(parts[0])
        s2 = TYPE_SYLLABLE_2.index(parts[1])
        s3 = TYPE_SYLLABLE_3.index(parts[2])
    except ValueError as exc:
        raise WorkloadError(f"bad p_type {name!r}") from exc
    return s1 * 25 + s2 * 5 + s3


def type_syllable3_codes(suffix: str) -> list[int]:
    """All type codes whose last syllable is ``suffix`` (``'%BRASS'``)."""
    s3 = TYPE_SYLLABLE_3.index(suffix)
    return [s1 * 25 + s2 * 5 + s3 for s1 in range(6) for s2 in range(5)]


def container_code(name: str) -> int:
    """Encode a ``p_container`` string like ``"MED BOX"``."""
    parts = name.split()
    if len(parts) != 2:
        raise WorkloadError(f"bad p_container {name!r}")
    try:
        size = CONTAINER_SIZES.index(parts[0])
        kind = CONTAINER_KINDS.index(parts[1])
    except ValueError as exc:
        raise WorkloadError(f"bad p_container {name!r}") from exc
    return size * 8 + kind


def brand_code(name: str) -> int:
    """Encode ``"Brand#MN"``."""
    if not name.startswith("Brand#") or len(name) != 8:
        raise WorkloadError(f"bad brand {name!r}")
    m, n = int(name[6]), int(name[7])
    if not (1 <= m <= 5 and 1 <= n <= 5):
        raise WorkloadError(f"bad brand {name!r}")
    return (m - 1) * 5 + (n - 1)


def nation_code(name: str) -> int:
    """Encode a nation name."""
    try:
        return NATIONS.index(name)
    except ValueError as exc:
        raise WorkloadError(f"unknown nation {name!r}") from exc


def region_code(name: str) -> int:
    """Encode a region name."""
    try:
        return REGIONS.index(name)
    except ValueError as exc:
        raise WorkloadError(f"unknown region {name!r}") from exc


def segment_code(name: str) -> int:
    """Encode a market segment."""
    try:
        return MKT_SEGMENTS.index(name)
    except ValueError as exc:
        raise WorkloadError(f"unknown segment {name!r}") from exc


def ship_mode_code(name: str) -> int:
    """Encode a ship mode."""
    try:
        return SHIP_MODES.index(name)
    except ValueError as exc:
        raise WorkloadError(f"unknown ship mode {name!r}") from exc

"""TPC-H schema constants and the simplified calendar.

The generator (see :mod:`repro.tpch.datagen`) follows the TPC-H
specification's cardinality ratios and value distributions; dates use a
simplified flat calendar (365-day years, fixed month lengths, no leap
days) so that ``year = 1992 + day // 365`` is exact — a documented
substitution that only shifts absolute date boundaries by at most two
days and leaves every selectivity ratio intact.
"""

from __future__ import annotations

#: cardinality of each table at scale factor 1 (lineitem is ~4x orders)
BASE_CARDINALITIES = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,   # 4 suppliers per part
    "orders": 1_500_000,
    "lineitem": 6_000_000,  # approximate; 1-7 lines per order
}

#: suppliers per part (fixed by the TPC-H spec)
SUPPLIERS_PER_PART = 4

_MONTH_DAYS = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_CUM_MONTH = [0]
for _d in _MONTH_DAYS:
    _CUM_MONTH.append(_CUM_MONTH[-1] + _d)

EPOCH_YEAR = 1992
DAYS_PER_YEAR = 365
#: last generated order date: 1998-08-02 in the flat calendar
MAX_ORDER_DAY = (1998 - EPOCH_YEAR) * DAYS_PER_YEAR + _CUM_MONTH[7] + 1


def date(year: int, month: int, day: int) -> int:
    """Days since 1992-01-01 in the flat calendar."""
    if not (1 <= month <= 12 and 1 <= day <= 31):
        raise ValueError(f"bad date {year}-{month}-{day}")
    return (year - EPOCH_YEAR) * DAYS_PER_YEAR + _CUM_MONTH[month - 1] + (day - 1)


REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

#: (nation, region index) in nationkey order, straight from the spec
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
SHIP_INSTRUCTIONS = [
    "COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN",
]
RETURN_FLAGS = ["A", "N", "R"]
LINE_STATUS = ["F", "O"]

#: part naming vocabulary (includes the colors Q9/Q20 filter on)
PART_COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished",
    "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
    "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
    "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
    "green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory",
    "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
    "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty",
    "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale",
    "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple",
    "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell",
    "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan",
    "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow",
]
TYPE_SYLLABLE_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_SYLLABLE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_SYLLABLE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
CONTAINER_SYLLABLE_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINER_SYLLABLE_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]

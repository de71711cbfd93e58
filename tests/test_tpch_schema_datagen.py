"""TPC-H schema encodings and the synthetic generator."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.tpch import generate
from repro.workloads.tpch.schema import (MKT_SEGMENTS, NATION_REGION,
                                         NATIONS, REGIONS, TYPE_SYLLABLE_2,
                                         TYPE_SYLLABLE_3, brand_code,
                                         container_code, date_index,
                                         nation_code, region_code,
                                         segment_code, ship_mode_code,
                                         type_code, type_syllable3_codes)


class TestSchema:
    def test_date_index_epoch(self):
        assert date_index("1992-01-01") == 0
        assert date_index("1992-01-02") == 1
        assert date_index("1993-01-01") == 366  # 1992 is a leap year

    def test_bad_date_rejected(self):
        with pytest.raises(WorkloadError):
            date_index("not-a-date")
        with pytest.raises(WorkloadError):
            date_index("1992-13-01")

    def test_type_code_roundtrip(self):
        assert type_code("ECONOMY ANODIZED BRASS") == 0
        assert type_code("STANDARD POLISHED TIN") == 149
        assert type_code("PROMO BRUSHED COPPER") == 3 * 25 + 1 * 5 + 1

    def test_type_prefix_codes(self):
        # a type's first syllable is its code's base-25 digit
        promo = {type_code(f"PROMO {s2} {s3}") for s2 in TYPE_SYLLABLE_2
                 for s3 in TYPE_SYLLABLE_3}
        assert len(promo) == 25
        assert all(code // 25 == 3 for code in promo)

    def test_type_suffix_codes(self):
        brass = type_syllable3_codes("BRASS")
        assert len(brass) == 30
        assert all(code % 5 == 0 for code in brass)

    def test_container_and_brand_codes(self):
        assert container_code("JUMBO BAG") == 0
        assert container_code("WRAP PKG") == 39
        assert brand_code("Brand#11") == 0
        assert brand_code("Brand#55") == 24
        with pytest.raises(WorkloadError):
            brand_code("Brand#60")
        with pytest.raises(WorkloadError):
            container_code("HUGE BOX")

    def test_name_lookups(self):
        assert nation_code("BRAZIL") == NATIONS.index("BRAZIL")
        assert region_code("ASIA") == REGIONS.index("ASIA")
        assert segment_code("BUILDING") == MKT_SEGMENTS.index("BUILDING")
        assert ship_mode_code("MAIL") == 2
        with pytest.raises(WorkloadError):
            nation_code("ATLANTIS")

    def test_nation_region_mapping_shape(self):
        assert len(NATION_REGION) == 25
        assert set(NATION_REGION) <= set(range(5))


class TestDatagen:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate(scale=0.005, sim_scale=0.5, seed=11)

    def test_all_tables_present(self, dataset):
        assert set(dataset.columns) == {
            "region", "nation", "supplier", "customer", "part",
            "partsupp", "orders", "lineitem"}

    def test_row_counts_scale(self, dataset):
        orders = len(dataset.columns["orders"]["o_orderkey"])
        lineitem = len(dataset.columns["lineitem"]["l_orderkey"])
        assert orders == int(1_500_000 * 0.005)
        # 1..7 lines per order, mean ~4
        assert 2 * orders < lineitem < 6 * orders

    def test_partsupp_four_per_part(self, dataset):
        parts = len(dataset.columns["part"]["p_partkey"])
        assert len(dataset.columns["partsupp"]["ps_partkey"]) == 4 * parts

    def test_lineitem_suppliers_join_partsupp(self, dataset):
        """Every (l_partkey, l_suppkey) must exist in partsupp (Q9)."""
        li = dataset.columns["lineitem"]
        ps = dataset.columns["partsupp"]
        pairs = set(zip(ps["ps_partkey"].tolist(),
                        ps["ps_suppkey"].tolist()))
        sample = list(zip(li["l_partkey"][:500].tolist(),
                          li["l_suppkey"][:500].tolist()))
        assert all(pair in pairs for pair in sample)

    def test_dates_ordered(self, dataset):
        li = dataset.columns["lineitem"]
        assert (li["l_receiptdate"] > li["l_shipdate"]).all()
        orders = dataset.columns["orders"]
        order_dates = np.repeat(
            orders["o_orderdate"],
            np.bincount(li["l_orderkey"] - 1,
                        minlength=len(orders["o_orderkey"])))
        assert (li["l_shipdate"] > order_dates).all()

    def test_a_third_of_customers_have_no_orders(self, dataset):
        custkeys = dataset.columns["orders"]["o_custkey"]
        assert not (custkeys % 3 == 0).any()

    def test_discounts_quantiles(self, dataset):
        li = dataset.columns["lineitem"]
        assert li["l_discount"].min() >= 0.0
        assert li["l_discount"].max() <= 0.10
        assert 1 <= li["l_quantity"].min()
        assert li["l_quantity"].max() <= 50

    def test_determinism(self):
        a = generate(scale=0.004, seed=5)
        b = generate(scale=0.004, seed=5)
        np.testing.assert_array_equal(
            a.columns["lineitem"]["l_shipdate"],
            b.columns["lineitem"]["l_shipdate"])

    def test_different_seed_differs(self):
        a = generate(scale=0.004, seed=5)
        b = generate(scale=0.004, seed=6)
        assert not np.array_equal(a.columns["lineitem"]["l_shipdate"],
                                  b.columns["lineitem"]["l_shipdate"])

    def test_byte_scale(self, dataset):
        assert dataset.byte_scale == pytest.approx(0.5 / 0.005)

    def test_fresh_tables_per_catalog(self, dataset):
        c1 = dataset.catalog()
        c2 = dataset.catalog()
        assert c1.table("lineitem") is not c2.table("lineitem")

    def test_bad_scale_rejected(self):
        with pytest.raises(WorkloadError):
            generate(scale=0)
        with pytest.raises(WorkloadError):
            generate(scale=0.01, sim_scale=-1)

    def test_unknown_table_rejected(self, dataset):
        with pytest.raises(WorkloadError):
            dataset.table("missing")

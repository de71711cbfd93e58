"""Unit helpers: conversions."""

import pytest

from repro import units


def test_binary_sizes():
    assert units.kib(1) == 1024
    assert units.mib(1) == 1024 ** 2
    assert units.mib(0.5) == 512 * 1024


def test_decimal_bandwidths():
    assert units.gb_per_s(1) == 1e9
    assert units.gb_per_s(41.6) == pytest.approx(41.6e9)


def test_frequencies_and_times():
    assert units.ghz(2.8) == 2.8e9
    assert units.msec(20) == pytest.approx(0.02)

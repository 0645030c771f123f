"""Unit tests for the energy model and accounting."""

from __future__ import annotations

import pytest

from repro.energy import EnergyAccount, normalized_energy, sram_access_energy
from repro.energy.model import (DRAM_ACCESS_NJ, L1_ACCESS_NJ, L2_ACCESS_NJ,
                                LLC_DATA_ACCESS_NJ, LLC_TAG_ACCESS_NJ)

#: A full LLC access: the tag and the data array.
LLC_ACCESS_NJ = LLC_TAG_ACCESS_NJ + LLC_DATA_ACCESS_NJ


class TestParameters:
    def test_relative_ordering_of_structures(self):
        """The CACTI-style ordering the paper's energy results depend on."""
        assert L1_ACCESS_NJ < L2_ACCESS_NJ
        assert L2_ACCESS_NJ < LLC_ACCESS_NJ
        assert LLC_ACCESS_NJ < DRAM_ACCESS_NJ
        assert sram_access_energy(2048) < L2_ACCESS_NJ

    def test_sram_scaling_is_monotone(self):
        assert sram_access_energy(1024) < sram_access_energy(2048)
        assert sram_access_energy(2048) < sram_access_energy(8192)
        assert sram_access_energy(0) == 0.0

    def test_llc_tag_only_cheaper_than_full_access(self):
        assert LLC_TAG_ACCESS_NJ < LLC_ACCESS_NJ


class TestAccount:
    def test_charging_accumulates_by_category(self):
        account = EnergyAccount()
        account.charge("hierarchy", 1.0)
        account.charge("hierarchy", 2.0)
        account.charge("predictor", 0.5)
        assert account.by_category["hierarchy"] == pytest.approx(3.0)
        assert account.total == pytest.approx(3.5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            EnergyAccount().charge("hierarchy", -1.0)

    def test_cache_hierarchy_energy_excludes_dram(self):
        account = EnergyAccount()
        account.charge("hierarchy", L2_ACCESS_NJ)
        account.charge("dram", DRAM_ACCESS_NJ)
        assert account.cache_hierarchy_energy() < account.total
        assert "dram" in account.by_category

    def test_reset(self):
        account = EnergyAccount()
        account.charge("hierarchy", 1.0)
        account.reset()
        assert account.total == 0.0


class TestNormalization:
    def test_normalized_energy(self):
        baseline = EnergyAccount()
        baseline.charge("hierarchy", 10.0)
        other = EnergyAccount()
        other.charge("hierarchy", 8.0)
        other.charge("predictor", 1.0)
        assert normalized_energy(other, baseline) == pytest.approx(0.9)

    def test_zero_baseline(self):
        assert normalized_energy(EnergyAccount(), EnergyAccount()) == 1.0

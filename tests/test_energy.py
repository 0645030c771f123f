"""Unit tests for the energy model and accounting."""

from __future__ import annotations

import pytest

from repro.energy import EnergyAccount, EnergyParameters, normalized_energy
from repro.memory.block import Level


class TestParameters:
    def test_relative_ordering_of_structures(self):
        """The CACTI-style ordering the paper's energy results depend on."""
        params = EnergyParameters()
        assert params.l1_access_nj < params.l2_access_nj
        assert params.l2_access_nj < params.cache_access_energy(Level.L3)
        assert params.cache_access_energy(Level.L3) < params.dram_access_nj
        assert params.sram_access_energy(2048) < params.l2_access_nj

    def test_sram_scaling_is_monotone(self):
        params = EnergyParameters()
        assert params.sram_access_energy(1024) < params.sram_access_energy(2048)
        assert params.sram_access_energy(2048) < params.sram_access_energy(8192)
        assert params.sram_access_energy(0) == 0.0

    def test_llc_tag_only_cheaper_than_full_access(self):
        params = EnergyParameters()
        assert params.cache_access_energy(Level.L3, tag_only=True) \
            < params.cache_access_energy(Level.L3)


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
        params = account.params
        account.charge("hierarchy", params.cache_access_energy(Level.L2))
        account.charge("dram", params.cache_access_energy(Level.MEM))
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

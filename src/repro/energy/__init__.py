"""CACTI-like per-access energy model and per-category accounting."""

from .model import EnergyAccount, normalized_energy, sram_access_energy

__all__ = ["EnergyAccount", "normalized_energy", "sram_access_energy"]

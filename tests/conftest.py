"""Shared pytest fixtures for the reproduction test suite."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.memory.hierarchy import CoreMemoryHierarchy
from repro.memory.spec import HierarchySpec, LevelSpec
from repro.sim.config import SystemConfig
from repro.sim.system import SimulatedSystem

from trace_helpers import make_load, make_store  # noqa: F401  (re-export)


@pytest.fixture
def small_hierarchy_config() -> HierarchySpec:
    """A scaled-down hierarchy so working sets overflow quickly in tests."""
    return dataclasses.replace(HierarchySpec.paper_single_core(), levels=(
        LevelSpec(name="L1", size_bytes=4 * 1024, associativity=4,
                  tag_latency=4),
        LevelSpec(name="L2", size_bytes=16 * 1024, associativity=8,
                  tag_latency=12),
        LevelSpec(name="L3", size_bytes=64 * 1024, associativity=16,
                  tag_latency=20, data_latency=35, sequential_tag_data=True),
    ))


@pytest.fixture
def baseline_hierarchy(small_hierarchy_config) -> CoreMemoryHierarchy:
    """A small hierarchy with the sequential (baseline) predictor."""
    return CoreMemoryHierarchy(config=small_hierarchy_config)


@pytest.fixture
def lp_system() -> SimulatedSystem:
    """A full paper-configuration system with the proposed level predictor."""
    return SimulatedSystem(SystemConfig.paper_single_core("lp"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)

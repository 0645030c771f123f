"""Table I: the evaluated system configuration.

Regenerates the configuration table from the programmatic system description
and checks the key parameters the rest of the reproduction depends on.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.sim.config import SystemConfig, table1_description

from conftest import save_result


def test_table1_system_configuration(benchmark):
    description = benchmark.pedantic(table1_description, rounds=1, iterations=1)

    table = format_table(["component", "configuration"],
                         [[key, value] for key, value in description.items()],
                         title="Table I: evaluated system configuration")
    print("\n" + table)
    save_result("table1_config", table)

    config = SystemConfig.paper_single_core()
    hierarchy = config.hierarchy
    # Cache geometry and latencies of Table I.
    assert hierarchy.l1.size_bytes == 32 * 1024
    assert hierarchy.l1.associativity == 4
    assert hierarchy.l1.tag_latency == 4
    l2 = hierarchy.intermediates[0]
    assert l2.size_bytes == 256 * 1024
    assert l2.associativity == 8
    assert hierarchy.llc.size_bytes == 2 * 1024 * 1024
    assert hierarchy.llc.associativity == 16
    assert hierarchy.llc.sequential_tag_data
    assert hierarchy.llc.tag_latency + hierarchy.llc.data_latency == 55
    # Core parameters.
    assert config.core.rob_entries == 192
    assert config.core.fetch_width == 4
    assert hierarchy.memory.core_frequency_ghz == 4.0
    # Multi-core variant uses the 8 MB shared LLC.
    multi = SystemConfig.paper_multi_core()
    assert multi.hierarchy.llc.size_bytes == 8 * 1024 * 1024

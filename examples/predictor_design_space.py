#!/usr/bin/env python3
"""Design-space exploration: metadata cache size, PLD thresholds and ablations.

The level predictor has two tuning knobs the paper discusses at length: the
LocMap metadata cache capacity (Figure 5) and the Popular Levels Detector's
confidence threshold (which controls how often multi-way predictions are
issued).  This example sweeps both on one workload and also runs one design
ablation: disabling the speculative DRAM launch for memory predictions.

Run with:

    python examples/predictor_design_space.py [--app gapbs.pr]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.analysis import format_table
from repro.core.level_predictor import CacheLevelPredictor, LevelPredictorConfig
from repro.core.pld import PLDConfig
from repro.sim.config import SystemConfig
from repro.sim.system import SimulatedSystem
from repro.workloads import build_workload


def run_with_predictor(app: str, accesses: int, seed: int,
                       predictor_config: LevelPredictorConfig,
                       speculative_dram: bool = True):
    """Run one system with an explicitly configured level predictor."""
    system_config = SystemConfig.paper_single_core("lp")
    system_config = replace(system_config, hierarchy=replace(
        system_config.hierarchy, memory_speculative_launch=speculative_dram))
    system = SimulatedSystem(system_config)
    # Swap in the custom-configured predictor before running.
    predictor = CacheLevelPredictor(predictor_config)
    system.predictor = predictor
    system.hierarchy.predictor = predictor
    return system.run_workload(build_workload(app), accesses, seed=seed,
                               warmup_accesses=accesses // 4)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--app", default="gapbs.pr")
    parser.add_argument("--accesses", type=int, default=12_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    baseline_system = SimulatedSystem(SystemConfig.paper_single_core("baseline"))
    baseline = baseline_system.run_workload(build_workload(args.app),
                                            args.accesses, seed=args.seed,
                                            warmup_accesses=args.accesses // 4)

    print(f"Sweeping the metadata cache size on {args.app} (Figure 5)...")
    rows = []
    for size in (1024, 2048, 4096, 8192):
        result = run_with_predictor(
            args.app, args.accesses, args.seed,
            LevelPredictorConfig(metadata_cache_bytes=size))
        rows.append([f"{size // 1024} KiB",
                     round(result.speedup_over(baseline), 3),
                     round(result.normalized_energy_over(baseline), 3),
                     round(result.metadata_miss_ratio, 3)])
    print(format_table(["metadata cache", "speedup", "normalized energy",
                        "metadata miss ratio"], rows,
                       title="Metadata cache size sweep"))

    print()
    print("Sweeping the PLD confidence threshold (single vs multi-way)...")
    rows = []
    for threshold in (0.4, 0.6, 0.8, 0.95):
        config = LevelPredictorConfig(
            pld=PLDConfig(confidence_threshold=threshold))
        result = run_with_predictor(args.app, args.accesses, args.seed, config)
        stats = result.predictor_stats
        multi_way = (stats.multi_way_predictions / stats.predictions
                     if stats.predictions else 0.0)
        rows.append([threshold, round(result.speedup_over(baseline), 3),
                     round(multi_way, 3),
                     round(stats.breakdown()["harmful"], 3)])
    print(format_table(["threshold", "speedup", "multi-way fraction",
                        "harmful fraction"], rows,
                       title="PLD confidence threshold sweep"))

    print()
    print("Design ablations...")
    default = run_with_predictor(args.app, args.accesses, args.seed,
                                 LevelPredictorConfig())
    no_speculation = run_with_predictor(args.app, args.accesses, args.seed,
                                        LevelPredictorConfig(),
                                        speculative_dram=False)
    rows = [
        ["full design", round(default.speedup_over(baseline), 3)],
        ["no speculative DRAM launch",
         round(no_speculation.speedup_over(baseline), 3)],
    ]
    print(format_table(["configuration", "speedup"], rows,
                       title="Ablations of the lookup mechanism"))


if __name__ == "__main__":
    main()

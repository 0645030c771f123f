"""Shared helpers for the table benchmarks.

The paper's figure grids and their claims live in the experiment registry
(:mod:`repro.experiments`): ``python -m repro run <fig> --check`` runs a
figure and checks the paper's claims about it.  The benchmarks here cover
what has no registry grid (Figures 1-3, Tables I-II, the storage overhead).
Each prints its table, writes it to ``benchmarks/results/`` and asserts
the qualitative shape.  How fast the simulator and its serving tier run
is measured by ``perfbench/`` alone; ``serve_pairs.py`` runs it on a
parent and a change in alternating pairs and writes the ledger.

Simulation volume is controlled with environment variables:

* ``REPRO_BENCH_ACCESSES`` — measured accesses per application (default 4000)
* ``REPRO_BENCH_WARMUP`` — warm-up accesses per application (default 1200)
"""

from __future__ import annotations

import os
from pathlib import Path

#: Number of measured accesses per application per system.
BENCH_ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "4000"))
#: Number of cache/predictor warm-up accesses excluded from statistics.
BENCH_WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", "1200"))

RESULTS_DIR = Path(__file__).parent / "results"


def save_result(name: str, text: str) -> Path:
    """Write a generated table to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path

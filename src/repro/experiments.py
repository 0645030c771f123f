"""Declarative registry of the paper's figure/table experiment grids.

Each :class:`Experiment` describes one reproducible unit of the evaluation —
which simulation jobs it needs (as engine :class:`~repro.sim.engine.Job`
objects) and how to reduce their results to the metrics the corresponding
figure plots.  The registry is what ``python -m repro`` executes: because
every job is content-addressed (see :mod:`repro.sim.store`), experiments
that share grid cells (Figures 7-12 all reuse the single-core 21 x 6 grid)
share stored results, re-running a figure costs nothing, and an interrupted
grid resumes from the jobs already persisted.

The ``golden`` experiment is special: it runs a fixed tiny grid whose sizes
never follow the CLI scale flags, and its metrics are committed to
``GOLDEN_stats.json`` at the repository root.  CI re-runs it (serially and
with ``REPRO_JOBS=2``) and diffs the stats bit-for-bit — any
nondeterminism, cross-process divergence or unintended behavioural change
in the simulator shows up as a diff.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from .cpu.ooo_core import geometric_mean
from .sim.config import SystemConfig
from .sim.engine import Job, MixJob, SimulationJob
from .sim.multicore import MultiCoreResult
from .sim.system import SimulationResult
from .workloads import HIGHLIGHTED_APPLICATIONS, MIXES, get_application

#: The systems compared in Figures 10-12 (baseline first: normalisation).
COMPARED_SYSTEMS: Tuple[str, ...] = ("baseline", "tage-2kb", "tage-8kb",
                                     "d2d", "lp", "ideal")

#: Figure 15 configuration order (most to least conservative).
SENSITIVITY_ORDER: Tuple[str, ...] = ("default", "fast-seq-llc",
                                      "parallel-llc", "parallel-llc-lsq96",
                                      "aggressive-core")

#: Figure 15's representative application subset.
SENSITIVITY_APPS: Tuple[str, ...] = ("gapbs.pr", "gapbs.bfs", "gups",
                                     "619.lbm", "605.mcf", "hpcg", "nas.cg",
                                     "602.gcc")

#: Figure 5 metadata-cache sweep sizes (bytes).
METADATA_SIZES: Tuple[int, ...] = (1024, 2048, 4096, 8192)

#: Figure 5's representative application per suite.
SUITE_REPRESENTATIVES: Mapping[str, Tuple[str, ...]] = {
    "spec17": ("605.mcf", "623.xalan"),
    "nas": ("nas.cg", "nas.ft"),
    "gapbs": ("gapbs.pr", "gapbs.bfs"),
    "other": ("gups", "hpcg"),
}


@dataclass(frozen=True)
class Scale:
    """Simulation volume of one CLI invocation.

    Matches the benchmark suite's knobs: ``accesses``/``warmup`` per
    single-core job, ``mix_accesses`` per core of a multi-core job.
    """

    accesses: int = 4000
    warmup: int = 1200
    mix_accesses: int = 2500


#: The fixed scale of the ``golden`` experiment (never follows CLI flags).
GOLDEN_SCALE = Scale(accesses=400, warmup=120, mix_accesses=240)

#: The golden grid's applications (one per memory-behaviour family).
GOLDEN_APPS: Tuple[str, ...] = ("gapbs.pr", "605.mcf", "stream", "gups")

#: The golden grid's mixes (one multi-program, one multi-threaded).
GOLDEN_MIXES: Tuple[str, ...] = ("mix1", "MT1")

#: Predictors of the golden/multi-core comparisons.
MIX_PREDICTORS: Tuple[str, ...] = ("baseline", "lp", "ideal")

#: Seeds of the ``sweep`` design-space grid (several times the paper grid).
SWEEP_SEEDS: Tuple[int, ...] = (0, 1, 2)

#: The ``hierarchy-sweep`` lattice: chain depths x LLC capacities x LLC
#: data latencies x predictors, run over :data:`HSWEEP_APPS`.
HSWEEP_DEPTHS: Tuple[int, ...] = (2, 3, 4)
HSWEEP_LLC_SIZES: Tuple[int, ...] = (1 * 1024 * 1024, 2 * 1024 * 1024,
                                     4 * 1024 * 1024)
HSWEEP_LLC_LATENCIES: Tuple[int, ...] = (28, 35)
HSWEEP_PREDICTORS: Tuple[str, ...] = ("baseline", "lp")
HSWEEP_APPS: Tuple[str, ...] = ("gapbs.pr", "605.mcf")


def hierarchy_lattice_spec(depth: int, llc_size_bytes: int,
                           llc_data_latency: int):
    """One point of the ``hierarchy-sweep`` lattice as a HierarchySpec.

    Depth 3 is the paper chain with a derived LLC; depth 2 drops the
    private L2; depth 4 inserts a 512 KB private L3 between the paper L2
    and the LLC.  Everything not named here (TLB, DRAM, interconnect,
    energy model) is the paper configuration, so lattice points differ
    from the paper system only in the dimensions being swept.
    """
    from dataclasses import replace as dc_replace

    from .memory.spec import HierarchySpec

    paper = HierarchySpec.paper_single_core()
    l1, l2 = paper.levels[0], paper.levels[1]
    llc = dc_replace(paper.levels[-1], size_bytes=llc_size_bytes,
                     data_latency=llc_data_latency)
    if depth == 2:
        levels = (l1, dc_replace(llc, name="L2"))
    elif depth == 3:
        levels = (l1, l2, llc)
    elif depth == 4:
        mid = dc_replace(l2, name="L3", size_bytes=512 * 1024,
                         tag_latency=16)
        levels = (l1, l2, mid, dc_replace(llc, name="L4"))
    else:
        raise ValueError(f"hierarchy-sweep depth must be 2, 3 or 4, "
                         f"got {depth}")
    return dc_replace(paper, levels=levels)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, exact float reprs, no whitespace
    ambiguity.  Two runs producing equal data produce equal bytes — the
    encoding every stats file (CLI and daemon alike) is written in."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


#: One qualitative claim of the paper: a name and a predicate over the
#: stats an experiment's :meth:`Experiment.summarize` returns.
Claim = Tuple[str, Callable[[Dict[str, Any]], bool]]


def failed_claims(experiment: "Experiment",
                  stats: Mapping[str, Any]) -> List[str]:
    """Names of the experiment's claims that ``stats`` does not satisfy.

    A claim that reads a key ``stats`` lacks (a grid summarised under a
    custom hierarchy, a hand-edited stats file) fails by name instead of
    raising.
    """
    failed = []
    for name, holds in experiment.claims:
        try:
            ok = bool(holds(stats))
        except (LookupError, TypeError, ValueError, ArithmeticError):
            ok = False
        if not ok:
            failed.append(name)
    return failed


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# ======================================================================
# Experiment kinds
# ======================================================================
class Experiment(ABC):
    """One figure/table grid: a job list, a metric reduction and the
    paper's claims about those metrics (checked by ``run <fig> --check``).
    """

    name: str
    title: str
    claims: Tuple[Claim, ...] = ()

    @abstractmethod
    def jobs(self, scale: Scale) -> List[Job]:
        """The engine jobs this experiment needs, in deterministic order."""

    @abstractmethod
    def summarize(self, results: Sequence[Any], scale: Scale
                  ) -> Dict[str, Any]:
        """Reduce results (in :meth:`jobs` order) to the figure's metrics."""


class SingleGridExperiment(Experiment):
    """A (application x predictor) single-core grid."""

    def __init__(self, name: str, title: str,
                 applications: Sequence[str],
                 predictors: Sequence[str]) -> None:
        self.name = name
        self.title = title
        self.applications = tuple(applications)
        self.predictors = tuple(predictors)

    def jobs(self, scale: Scale) -> List[Job]:
        return [SimulationJob(workload=app, predictor=predictor,
                              num_accesses=scale.accesses,
                              warmup_accesses=scale.warmup, seed=0)
                for app in self.applications
                for predictor in self.predictors]

    def grid(self, results: Sequence[SimulationResult]
             ) -> Dict[str, Dict[str, SimulationResult]]:
        """Reshape the flat result list to {application: {predictor: r}}."""
        grid: Dict[str, Dict[str, SimulationResult]] = {}
        index = 0
        for app in self.applications:
            grid[app] = {}
            for predictor in self.predictors:
                grid[app][predictor] = results[index]
                index += 1
        return grid

    def summarize(self, results: Sequence[Any], scale: Scale
                  ) -> Dict[str, Any]:
        return self.metrics(self.grid(results))

    def metrics(self, grid: Dict[str, Dict[str, SimulationResult]]
                ) -> Dict[str, Any]:
        raise NotImplementedError


class _MetricsSingleGrid(SingleGridExperiment):
    """A single-core grid whose metrics come from a plain function."""

    def __init__(self, name, title, applications, predictors, metrics,
                 claims: Tuple[Claim, ...] = ()):
        super().__init__(name, title, applications, predictors)
        self._metrics = metrics
        self.claims = claims

    def metrics(self, grid):
        return self._metrics(grid)


class MixGridExperiment(Experiment):
    """A (mix x predictor) multi-core grid."""

    def __init__(self, name: str, title: str, mixes: Sequence[str],
                 predictors: Sequence[str], metrics,
                 claims: Tuple[Claim, ...] = ()) -> None:
        self.name = name
        self.title = title
        self.mixes = tuple(mixes)
        self.predictors = tuple(predictors)
        self._metrics = metrics
        self.claims = claims

    def jobs(self, scale: Scale) -> List[Job]:
        return [MixJob(mix=mix, predictor=predictor,
                       accesses_per_core=scale.mix_accesses, seed=0,
                       config=SystemConfig.paper_multi_core())
                for mix in self.mixes
                for predictor in self.predictors]

    def grid(self, results: Sequence[MultiCoreResult]
             ) -> Dict[str, Dict[str, MultiCoreResult]]:
        grid: Dict[str, Dict[str, MultiCoreResult]] = {}
        index = 0
        for mix in self.mixes:
            grid[mix] = {}
            for predictor in self.predictors:
                grid[mix][predictor] = results[index]
                index += 1
        return grid

    def summarize(self, results, scale):
        return self._metrics(self.grid(results))


class SensitivityExperiment(Experiment):
    """Figure 15: (configuration variant x application x {baseline, lp})."""

    name = "fig15"
    title = "Figure 15: LP speedup under more aggressive systems"

    def jobs(self, scale: Scale) -> List[Job]:
        variants = SystemConfig.sensitivity_variants()
        return [SimulationJob(workload=app, predictor=predictor,
                              num_accesses=scale.accesses,
                              warmup_accesses=scale.warmup, seed=0,
                              config=variants[variant])
                for variant in SENSITIVITY_ORDER
                for app in SENSITIVITY_APPS
                for predictor in ("baseline", "lp")]

    def summarize(self, results, scale):
        speedups: Dict[str, float] = {}
        index = 0
        for variant in SENSITIVITY_ORDER:
            per_app = []
            for _ in SENSITIVITY_APPS:
                baseline, lp = results[index], results[index + 1]
                index += 2
                per_app.append(lp.speedup_over(baseline))
            speedups[variant] = geometric_mean(per_app)
        return {"lp_geomean_speedup": speedups}

    #: LP helps in every configuration; the most aggressive core gains
    #: least (paper: 7.8% shrinks to 5.6%) but still gains.
    claims = (
        ("lp_gains_in_every_configuration", lambda s: all(
            value > 1.0 for value in s["lp_geomean_speedup"].values())),
        ("aggressive_core_gains_no_more_than_default", lambda s: (
            s["lp_geomean_speedup"]["aggressive-core"]
            <= s["lp_geomean_speedup"]["default"] + 0.01)),
        ("aggressive_core_still_gains", lambda s: (
            s["lp_geomean_speedup"]["aggressive-core"] >= 1.005)),
    )


class MetadataSweepExperiment(Experiment):
    """Figure 5: cache-hierarchy energy vs. LocMap metadata-cache size."""

    name = "fig05"
    title = "Figure 5: energy vs metadata cache size (normalized to 1KB)"

    def jobs(self, scale: Scale) -> List[Job]:
        # Application-major, size-minor: adjacent jobs share one trace.
        base = SystemConfig.paper_single_core("lp")
        return [SimulationJob(workload=app, predictor="lp",
                              num_accesses=scale.accesses,
                              warmup_accesses=scale.warmup, seed=0,
                              config=replace(base,
                                             name=f"metadata-{size}B",
                                             metadata_cache_bytes=size))
                for suite, apps in SUITE_REPRESENTATIVES.items()
                for app in apps
                for size in METADATA_SIZES]

    def summarize(self, results, scale):
        normalized: Dict[str, Dict[str, float]] = {}
        index = 0
        for suite, apps in SUITE_REPRESENTATIVES.items():
            totals = {size: 0.0 for size in METADATA_SIZES}
            for _ in apps:
                for size in METADATA_SIZES:
                    totals[size] += results[index].cache_hierarchy_energy_nj
                    index += 1
            energies = {size: totals[size] / len(apps)
                        for size in METADATA_SIZES}
            base = energies[METADATA_SIZES[0]]
            normalized[suite] = {str(size): energies[size] / base
                                 for size in METADATA_SIZES}
        geo = {str(size): geometric_mean(
            [normalized[suite][str(size)] for suite in SUITE_REPRESENTATIVES])
            for size in METADATA_SIZES}
        return {"normalized_energy": normalized, "geomean": geo}

    #: 2 KB is the sweet spot: it costs about as much energy as 1 KB, and
    #: the largest size is never the cheapest.
    claims = (
        ("2kb_energy_near_1kb", lambda s: s["geomean"]["2048"] < 1.15),
        ("8kb_not_cheapest", lambda s: (
            s["geomean"]["8192"] >= min(s["geomean"].values()) - 1e-9)),
        ("energy_sweep_nonzero", lambda s: max(s["geomean"].values()) > 0.0),
    )


# ======================================================================
# Metric reductions for the shared single-core / mix grids
# ======================================================================
def _fig07_metrics(grid) -> Dict[str, Any]:
    breakdown = {app: results["lp"].predictor_stats.breakdown()
                 for app, results in grid.items()}
    harmful = [row["harmful"] for row in breakdown.values()]
    return {"breakdown": breakdown,
            "mean_harmful": sum(harmful) / len(harmful)}


#: Prediction is accurate (harmful predictions are rare; the paper's worst
#: cases stay around 20%) and finds many useful skips where LP pays off.
_FIG07_CLAIMS: Tuple[Claim, ...] = (
    ("breakdown_sums_to_one", lambda s: all(
        abs(sum(row.values()) - 1.0) < 1e-6
        for row in s["breakdown"].values())),
    ("harmful_at_most_25pct_for_all_but_two_apps", lambda s: (
        sum(row["harmful"] <= 0.25 for row in s["breakdown"].values())
        >= len(s["breakdown"]) - 2)),
    ("mean_harmful_below_10pct", lambda s: s["mean_harmful"] < 0.10),
    ("graph_and_gups_mostly_skip", lambda s: all(
        s["breakdown"][app]["skip"] > 0.5
        for app in ("gapbs.pr", "gapbs.tc", "gups", "nas.is"))),
)


def _fig08_metrics(grid) -> Dict[str, Any]:
    return {app: {
        "metadata_miss_ratio": results["lp"].metadata_miss_ratio,
        "pld_misprediction_ratio": results["lp"].pld_misprediction_ratio,
    } for app, results in grid.items()}


#: Low accuracy is not just metadata misses: graph apps and gups stress
#: the metadata cache, and the PLD still predicts well for them.
_FIG08_CLAIMS: Tuple[Claim, ...] = (
    ("ratios_in_unit_interval", lambda s: all(
        0.0 <= row["metadata_miss_ratio"] <= 1.0
        and 0.0 <= row["pld_misprediction_ratio"] <= 1.0
        for row in s.values())),
    ("local_apps_keep_metadata_cache_effective", lambda s: all(
        s[app]["metadata_miss_ratio"] < 0.5
        for app in ("627.cam", "602.gcc"))),
    ("gups_stresses_metadata_cache", lambda s: (
        s["gups"]["metadata_miss_ratio"] > 0.5)),
    ("pagerank_stresses_metadata_cache", lambda s: (
        s["gapbs.pr"]["metadata_miss_ratio"] > 0.3)),
    ("pld_moderate_when_metadata_stressed", lambda s: all(
        s[app]["pld_misprediction_ratio"] < 0.5
        for app in ("gups", "gapbs.pr", "gapbs.bc"))),
)


def _fig09_metrics(grid) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for app, results in grid.items():
        stats = results["lp"].predictor_stats
        total = sum(stats.level_histogram.values()) or 1
        out[app] = {
            "multi_way_fraction": (stats.multi_way_predictions
                                   / max(stats.predictions, 1)),
            "levels": {"+".join(level.name for level in levels):
                       count / total
                       for levels, count in sorted(
                           stats.level_histogram.items())},
        }
    return out


#: The predictor's lookup targets (L2, L3, memory) and their multi-way
#: combinations, as :func:`_fig09_metrics` names them.
_FIG09_TARGETS: Tuple[str, ...] = ("L2", "L3", "L2+L3", "MEM", "L2+MEM",
                                   "L3+MEM", "L2+L3+MEM")


def _fig09_targets(levels: Mapping[str, float]) -> Dict[str, float]:
    return {target: levels.get(target, 0.0) for target in _FIG09_TARGETS}


#: Multi-way predictions are a minority (Section V.A); memory-bound gups
#: is predicted off-chip and gcc keeps a visible share of L2 targets.
_FIG09_CLAIMS: Tuple[Claim, ...] = (
    ("targets_sum_to_one", lambda s: all(
        abs(sum(_fig09_targets(row["levels"]).values()) - 1.0) < 1e-6
        for row in s.values())),
    ("multi_way_minority", lambda s: all(
        sum(value for target, value in _fig09_targets(row["levels"]).items()
            if "+" in target) < 0.6
        for row in s.values())),
    ("gups_predicted_memory_or_l3_memory", lambda s: (
        s["gups"]["levels"].get("MEM", 0.0)
        + s["gups"]["levels"].get("L3+MEM", 0.0) > 0.5)),
    ("gcc_keeps_l2_targets", lambda s: (
        s["602.gcc"]["levels"].get("L2", 0.0) > 0.1)),
)


def _per_system_metrics(grid, metric) -> Dict[str, Any]:
    """Per-application values of ``metric(result, baseline)`` per system."""
    per_app = {
        app: {name: metric(results[name], results["baseline"])
              for name in results if name != "baseline"}
        for app, results in grid.items()
    }
    systems = next(iter(per_app.values())).keys() if per_app else ()
    geomean = {name: geometric_mean([per_app[app][name] for app in per_app])
               for name in systems}
    return {"per_application": per_app, "geomean": geomean}


def _per_app_mean(stats, system: str) -> float:
    """Arithmetic mean of one system's per-application values."""
    return _mean(row[system] for row in stats["per_application"].values())


def _fig10_metrics(grid) -> Dict[str, Any]:
    metrics = _per_system_metrics(
        grid, lambda r, base: r.normalized_energy_over(base))
    metrics["lp_recovery_fraction"] = {
        app: results["lp"].recovery.recovery_energy_fraction
        for app, results in grid.items()}
    return metrics


#: LP saves cache-hierarchy energy (paper: 16%) on almost every
#: application; the larger 8 KB TAGE costs more than the 2 KB one, and
#: recovery is a small share of the energy (paper: ~1%).
_FIG10_CLAIMS: Tuple[Claim, ...] = (
    ("lp_saves_energy_on_average", lambda s: _per_app_mean(s, "lp") < 0.95),
    ("lp_costs_more_energy_on_at_most_5_apps", lambda s: sum(
        row["lp"] > 1.0 for row in s["per_application"].values()) <= 5),
    ("tage_8kb_costs_at_least_tage_2kb", lambda s: (
        _per_app_mean(s, "tage-8kb") > _per_app_mean(s, "tage-2kb") - 0.02)),
    ("lp_cheaper_than_tage_8kb", lambda s: (
        _per_app_mean(s, "lp") < _per_app_mean(s, "tage-8kb"))),
    ("recovery_energy_below_5pct", lambda s: (
        _mean(s["lp_recovery_fraction"].values()) < 0.05)),
)


def _fig11_metrics(grid) -> Dict[str, Any]:
    return _per_system_metrics(grid, lambda r, base: r.speedup_over(base))


def _high_benefit_lp_speedups(stats) -> List[float]:
    """LP speedups of the applications the paper expects to gain most."""
    return [row["lp"] for app, row in stats["per_application"].items()
            if get_application(app).expected_benefit == "high"]


#: The headline: LP's geomean speedup (paper: 7.8%), the ordering
#: Ideal >= D2D >= LP >= TAGE-8KB, LP within a few percent of D2D and
#: Ideal, and clear gains for the high-benefit applications.
_FIG11_CLAIMS: Tuple[Claim, ...] = (
    ("lp_geomean_speedup_1.03_to_1.15", lambda s: (
        1.03 <= s["geomean"]["lp"] <= 1.15)),
    ("ideal_at_least_d2d", lambda s: (
        s["geomean"]["ideal"] >= s["geomean"]["d2d"] - 1e-6)),
    ("d2d_at_least_lp", lambda s: (
        s["geomean"]["d2d"] >= s["geomean"]["lp"] - 1e-3)),
    ("lp_at_least_tage_8kb", lambda s: (
        s["geomean"]["lp"] >= s["geomean"]["tage-8kb"] - 5e-3)),
    ("ideal_gains_and_tage_2kb_breaks_even", lambda s: (
        s["geomean"]["ideal"] > 1.0 and s["geomean"]["tage-2kb"] > 0.98)),
    ("lp_within_3pct_of_d2d", lambda s: (
        s["geomean"]["d2d"] - s["geomean"]["lp"] < 0.03)),
    ("lp_within_3pct_of_ideal", lambda s: (
        s["geomean"]["ideal"] - s["geomean"]["lp"] < 0.03)),
    ("high_benefit_apps_geomean_above_1.05", lambda s: (
        geometric_mean(_high_benefit_lp_speedups(s)) > 1.05)),
    ("every_high_benefit_app_above_1.02", lambda s: (
        min(_high_benefit_lp_speedups(s)) > 1.02)),
    ("no_app_below_0.98_with_lp", lambda s: all(
        row["lp"] > 0.98 for row in s["per_application"].values())),
)


def _fig12_metrics(grid) -> Dict[str, Any]:
    return {app: {name: result.average_memory_access_latency
                  for name, result in results.items()}
            for app, results in grid.items()}


def _relative_latency(row: Mapping[str, float], system: str) -> float:
    """One system's average memory access latency over the baseline's."""
    return row[system] / row["baseline"] if row["baseline"] else 1.0


#: LP cuts the average memory access latency (paper: ~20%), most for
#: the graph applications and gups; Ideal is at least as good everywhere.
_FIG12_CLAIMS: Tuple[Claim, ...] = (
    ("lp_cuts_mean_latency_below_0.97", lambda s: _mean(
        _relative_latency(row, "lp") for row in s.values()) < 0.97),
    ("ideal_latency_at_most_lp", lambda s: all(
        _relative_latency(row, "ideal")
        <= _relative_latency(row, "lp") + 1e-6 for row in s.values())),
    ("graph_and_gups_latency_below_0.95", lambda s: all(
        _relative_latency(s[app], "lp") < 0.95
        for app in ("gapbs.pr", "gapbs.bc", "gups"))),
)


def _fig13_metrics(grid) -> Dict[str, Any]:
    return {mix: dict(results["lp"].accuracy_breakdown)
            for mix, results in grid.items()}


#: Multi-core accuracy is lower than single-core (contention, untracked
#: coherence events) but harmful predictions stay a minority.
_FIG13_CLAIMS: Tuple[Claim, ...] = (
    ("breakdown_sums_to_one", lambda s: all(
        abs(sum(row.values()) - 1.0) < 1e-6 for row in s.values())),
    ("harmful_below_35pct_per_mix", lambda s: all(
        row["harmful"] < 0.35 for row in s.values())),
    ("mean_harmful_below_20pct", lambda s: _mean(
        row["harmful"] for row in s.values()) < 0.2),
)


def _fig14_metrics(grid) -> Dict[str, Any]:
    per_mix = {mix: {
        "lp_speedup": results["lp"].speedup_over(results["baseline"]),
        "ideal_speedup": results["ideal"].speedup_over(results["baseline"]),
        "lp_energy_efficiency": results["lp"].energy_efficiency_over(
            results["baseline"]),
    } for mix, results in grid.items()}
    return {
        "per_mix": per_mix,
        "geomean": {metric: geometric_mean(
                        [row[metric] for row in per_mix.values()])
                    for metric in ("lp_speedup", "ideal_speedup",
                                   "lp_energy_efficiency")},
    }


#: LP speeds up every mix (paper: ~6% of a ~7% potential) and improves
#: energy efficiency (paper: ~8%).
_FIG14_CLAIMS: Tuple[Claim, ...] = (
    ("lp_speeds_up_every_mix", lambda s: all(
        row["lp_speedup"] > 0.99 for row in s["per_mix"].values())),
    ("lp_geomean_speedup_above_1.01", lambda s: (
        s["geomean"]["lp_speedup"] > 1.01)),
    ("ideal_at_least_lp", lambda s: (
        s["geomean"]["ideal_speedup"] >= s["geomean"]["lp_speedup"] - 1e-6)),
    ("lp_captures_half_of_ideal", lambda s: (
        s["geomean"]["lp_speedup"]
        > 1.0 + 0.5 * (s["geomean"]["ideal_speedup"] - 1.0))),
    ("lp_improves_energy_efficiency", lambda s: (
        s["geomean"]["lp_energy_efficiency"] > 1.0)),
)


# ======================================================================
# Sweep experiment (store scale-out)
# ======================================================================
class SweepExperiment(Experiment):
    """A design-space sweep several times the paper's largest grid.

    Every highlighted application x all six compared systems x
    :data:`SWEEP_SEEDS`, plus every Table II mix x the multi-core
    predictors x the same seeds — ~3.5x the 126-job Figure 10-12 grid.
    This is the grid the sharded results store exists for: hundreds of
    cells spread across shard files, written concurrently by however many
    ``repro run`` invocations share the store.  The summary reports
    per-seed geomean speedups and their cross-seed spread, so the sweep
    doubles as a seed-sensitivity check on the paper's headline result.
    """

    name = "sweep"
    title = "Design-space sweep: full grids x seeds (store scale-out)"

    def __init__(self, applications: Sequence[str],
                 mixes: Sequence[str]) -> None:
        self.applications = tuple(applications)
        self.mixes = tuple(mixes)

    def jobs(self, scale: Scale) -> List[Job]:
        single = [SimulationJob(workload=app, predictor=predictor,
                                num_accesses=scale.accesses,
                                warmup_accesses=scale.warmup, seed=seed)
                  for app in self.applications
                  for seed in SWEEP_SEEDS
                  for predictor in COMPARED_SYSTEMS]
        mixes = [MixJob(mix=mix, predictor=predictor,
                        accesses_per_core=scale.mix_accesses, seed=seed,
                        config=SystemConfig.paper_multi_core())
                 for mix in self.mixes
                 for seed in SWEEP_SEEDS
                 for predictor in MIX_PREDICTORS]
        return single + mixes

    def summarize(self, results: Sequence[Any], scale: Scale
                  ) -> Dict[str, Any]:
        index = 0
        systems = [name for name in COMPARED_SYSTEMS if name != "baseline"]
        per_seed: Dict[str, Dict[str, List[float]]] = {
            str(seed): {name: [] for name in systems}
            for seed in SWEEP_SEEDS}
        for _app in self.applications:
            for seed in SWEEP_SEEDS:
                per_system = {}
                for predictor in COMPARED_SYSTEMS:
                    per_system[predictor] = results[index]
                    index += 1
                baseline = per_system["baseline"]
                for name in systems:
                    per_seed[str(seed)][name].append(
                        per_system[name].speedup_over(baseline))
        single = {seed: {name: geometric_mean(values)
                         for name, values in row.items()}
                  for seed, row in per_seed.items()}
        mix_speedups: Dict[str, List[float]] = {
            str(seed): [] for seed in SWEEP_SEEDS}
        for _mix in self.mixes:
            for seed in SWEEP_SEEDS:
                per_system = {}
                for predictor in MIX_PREDICTORS:
                    per_system[predictor] = results[index]
                    index += 1
                mix_speedups[str(seed)].append(
                    per_system["lp"].speedup_over(per_system["baseline"]))
        lp = [single[str(seed)]["lp"] for seed in SWEEP_SEEDS]
        return {
            "jobs": len(results),
            "seeds": list(SWEEP_SEEDS),
            "single_core_geomean_speedup": single,
            "mix_lp_geomean_speedup": {
                seed: geometric_mean(values)
                for seed, values in mix_speedups.items()},
            "lp_seed_spread": {"min": min(lp), "max": max(lp),
                               "mean": sum(lp) / len(lp)},
        }


class HierarchySweepExperiment(Experiment):
    """A generated lattice over the declarative hierarchy config space.

    Chain depth x LLC capacity x LLC data latency x predictor, over two
    memory-intensive applications — 72 jobs, none of which is expressible
    through the fixed paper configurations.  Every job's system carries a
    :class:`~repro.memory.spec.HierarchySpec` built by
    :func:`hierarchy_lattice_spec`, so the grid exercises the full
    declarative path: spec -> N-level chain -> replay loop ->
    content-addressed store.  Job keys are pure functions of the spec, so
    the store dedups lattice points across re-runs and daemons serve the
    sweep incrementally — a re-run against a warm store recomputes
    nothing.
    """

    name = "hierarchy-sweep"
    title = "Hierarchy config-space sweep: depth x LLC size x latency"

    def points(self) -> List[Tuple[int, int, int]]:
        """The lattice points in deterministic job order."""
        return [(depth, size, latency)
                for depth in HSWEEP_DEPTHS
                for size in HSWEEP_LLC_SIZES
                for latency in HSWEEP_LLC_LATENCIES]

    @staticmethod
    def point_name(depth: int, size: int, latency: int) -> str:
        return f"hsweep-d{depth}-llc{size // 1024}k-lat{latency}"

    def jobs(self, scale: Scale) -> List[Job]:
        jobs: List[Job] = []
        for app in HSWEEP_APPS:
            for depth, size, latency in self.points():
                spec = hierarchy_lattice_spec(depth, size, latency)
                config = SystemConfig(
                    name=self.point_name(depth, size, latency),
                    hierarchy=spec)
                for predictor in HSWEEP_PREDICTORS:
                    jobs.append(SimulationJob(
                        workload=app, predictor=predictor,
                        num_accesses=scale.accesses,
                        warmup_accesses=scale.warmup, seed=0,
                        config=config))
        return jobs

    def summarize(self, results: Sequence[Any], scale: Scale
                  ) -> Dict[str, Any]:
        per_point: Dict[str, Dict[str, Dict[str, float]]] = {}
        index = 0
        grid: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for app in HSWEEP_APPS:
            for depth, size, latency in self.points():
                point = self.point_name(depth, size, latency)
                for predictor in HSWEEP_PREDICTORS:
                    grid.setdefault(point, {}).setdefault(app, {})[
                        predictor] = results[index]
                    index += 1
        for point, apps in grid.items():
            ipc = {predictor: geometric_mean(
                       [apps[app][predictor].ipc for app in HSWEEP_APPS])
                   for predictor in HSWEEP_PREDICTORS}
            amat = {predictor: sum(
                        apps[app][predictor].average_memory_access_latency
                        for app in HSWEEP_APPS) / len(HSWEEP_APPS)
                    for predictor in HSWEEP_PREDICTORS}
            speedup = geometric_mean(
                [apps[app]["lp"].speedup_over(apps[app]["baseline"])
                 for app in HSWEEP_APPS])
            per_point[point] = {"geomean_ipc": ipc, "mean_amat": amat,
                                "lp_geomean_speedup": speedup}
        return {
            "jobs": len(results),
            "applications": list(HSWEEP_APPS),
            "depths": list(HSWEEP_DEPTHS),
            "llc_sizes": list(HSWEEP_LLC_SIZES),
            "llc_data_latencies": list(HSWEEP_LLC_LATENCIES),
            "predictors": list(HSWEEP_PREDICTORS),
            "points": per_point,
        }


# ======================================================================
# Golden experiment
# ======================================================================
class GoldenExperiment(Experiment):
    """The fixed tiny grid CI regression-checks bit-for-bit.

    Sizes come from :data:`GOLDEN_SCALE` regardless of the scale the CLI
    was invoked with, so the metrics in ``GOLDEN_stats.json`` are a stable
    fingerprint of the simulator's behaviour.
    """

    name = "golden"
    title = "Golden regression grid (fixed tiny sizes)"

    def jobs(self, scale: Scale) -> List[Job]:
        del scale  # Fixed sizes: the golden fingerprint must never drift.
        single = [SimulationJob(workload=app, predictor=predictor,
                                num_accesses=GOLDEN_SCALE.accesses,
                                warmup_accesses=GOLDEN_SCALE.warmup, seed=0)
                  for app in GOLDEN_APPS
                  for predictor in COMPARED_SYSTEMS]
        mixes = [MixJob(mix=mix, predictor=predictor,
                        accesses_per_core=GOLDEN_SCALE.mix_accesses, seed=0,
                        config=SystemConfig.paper_multi_core())
                 for mix in GOLDEN_MIXES
                 for predictor in MIX_PREDICTORS]
        return single + mixes

    def summarize(self, results, scale):
        index = 0
        single: Dict[str, Any] = {}
        for app in GOLDEN_APPS:
            per_system: Dict[str, SimulationResult] = {}
            for predictor in COMPARED_SYSTEMS:
                per_system[predictor] = results[index]
                index += 1
            baseline = per_system["baseline"]
            stats = per_system["lp"].predictor_stats
            hierarchy = per_system["lp"].hierarchy_stats
            single[app] = {
                "l1_hit_rate": (hierarchy.l1_hits
                                / max(hierarchy.demand_accesses, 1)),
                "lp_accuracy": stats.accuracy,
                "lp_breakdown": stats.breakdown(),
                "average_latency": {
                    name: result.average_memory_access_latency
                    for name, result in per_system.items()},
                "speedup": {name: result.speedup_over(baseline)
                            for name, result in per_system.items()
                            if name != "baseline"},
                "normalized_energy": {
                    name: result.normalized_energy_over(baseline)
                    for name, result in per_system.items()
                    if name != "baseline"},
            }
        mixes: Dict[str, Any] = {}
        for mix in GOLDEN_MIXES:
            per_system = {}
            for predictor in MIX_PREDICTORS:
                per_system[predictor] = results[index]
                index += 1
            mixes[mix] = {
                "lp_speedup": per_system["lp"].speedup_over(
                    per_system["baseline"]),
                "ideal_speedup": per_system["ideal"].speedup_over(
                    per_system["baseline"]),
                "lp_breakdown": dict(per_system["lp"].accuracy_breakdown),
            }
        return {
            "schema": "repro-golden/1",
            "scale": {"accesses": GOLDEN_SCALE.accesses,
                      "warmup": GOLDEN_SCALE.warmup,
                      "mix_accesses": GOLDEN_SCALE.mix_accesses},
            "applications": list(GOLDEN_APPS),
            "systems": list(COMPARED_SYSTEMS),
            "single_core": single,
            "geomean_speedup": {
                name: geometric_mean([single[app]["speedup"][name]
                                      for app in GOLDEN_APPS])
                for name in COMPARED_SYSTEMS if name != "baseline"},
            "mixes": mixes,
        }


# ======================================================================
# Registry
# ======================================================================
def _build_registry() -> Dict[str, Experiment]:
    apps = tuple(HIGHLIGHTED_APPLICATIONS)
    mixes = tuple(MIXES)
    experiments: List[Experiment] = [
        _MetricsSingleGrid(
            "fig07", "Figure 7: level prediction outcome breakdown",
            apps, ("lp",), _fig07_metrics,
            _FIG07_CLAIMS),
        _MetricsSingleGrid(
            "fig08", "Figure 8: metadata misses and PLD mispredictions",
            apps, ("lp",), _fig08_metrics,
            _FIG08_CLAIMS),
        _MetricsSingleGrid(
            "fig09", "Figure 9: levels suggested by the predictor",
            apps, ("lp",), _fig09_metrics,
            _FIG09_CLAIMS),
        _MetricsSingleGrid(
            "fig10", "Figure 10: normalized cache-hierarchy energy",
            apps, COMPARED_SYSTEMS, _fig10_metrics,
            _FIG10_CLAIMS),
        _MetricsSingleGrid(
            "fig11", "Figure 11: speedup over the baseline system",
            apps, COMPARED_SYSTEMS, _fig11_metrics,
            _FIG11_CLAIMS),
        _MetricsSingleGrid(
            "fig12", "Figure 12: average memory access latency",
            apps, COMPARED_SYSTEMS, _fig12_metrics,
            _FIG12_CLAIMS),
        MetadataSweepExperiment(),
        MixGridExperiment(
            "fig13", "Figure 13: multi-core prediction accuracy",
            mixes, MIX_PREDICTORS, _fig13_metrics, _FIG13_CLAIMS),
        MixGridExperiment(
            "fig14", "Figure 14: multi-core speedup",
            mixes, MIX_PREDICTORS, _fig14_metrics, _FIG14_CLAIMS),
        SensitivityExperiment(),
        GoldenExperiment(),
        SweepExperiment(apps, mixes),
        HierarchySweepExperiment(),
    ]
    return {experiment.name: experiment for experiment in experiments}


#: Every experiment ``python -m repro`` can run, keyed by CLI name.
EXPERIMENTS: Dict[str, Experiment] = _build_registry()

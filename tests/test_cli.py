"""Tests for the ``python -m repro`` experiment CLI.

Exercises the acceptance path end to end: running a figure grid populates
the store, re-running it performs zero simulations, ``--force`` recomputes,
``status``/``figures``/``clean`` behave, and the golden experiment's
metrics match the committed ``GOLDEN_stats.json`` bit-for-bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import canonical_json, main, run_experiment
from repro.experiments import EXPERIMENTS, GOLDEN_SCALE, Scale
from repro.sim.store import ResultStore

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A tiny scale so CLI tests stay fast (the golden grid ignores it anyway).
TINY = Scale(accesses=120, warmup=40, mix_accesses=80)


@pytest.fixture(autouse=True)
def _no_env_store(monkeypatch):
    """CLI tests must not pick up an ambient REPRO_STORE."""
    monkeypatch.delenv("REPRO_STORE", raising=False)


# ======================================================================
# run
# ======================================================================
class TestRun:
    def test_second_run_does_zero_simulations(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_experiment("fig13", store, TINY)
        assert first.simulated == first.total_jobs > 0
        assert first.stored == 0

        store = ResultStore(tmp_path)
        second = run_experiment("fig13", store, TINY)
        assert second.simulated == 0
        assert second.stored == second.total_jobs
        assert second.stats == first.stats

    def test_force_recomputes_every_job(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_experiment("fig13", store, TINY)
        forced = run_experiment("fig13", store, TINY, force=True)
        assert forced.simulated == forced.total_jobs
        assert forced.stats == first.stats

    def test_stats_file_is_written_canonically(self, tmp_path):
        store = ResultStore(tmp_path)
        report = run_experiment("fig13", store, TINY)
        assert report.stats_path == tmp_path / "stats" / "fig13.json"
        text = report.stats_path.read_text()
        assert text == canonical_json(report.stats)
        assert json.loads(text) == report.stats

    def test_experiments_share_stored_grid_cells(self, tmp_path):
        """Figures over the same grid cost nothing after the first run."""
        store = ResultStore(tmp_path)
        run_experiment("fig13", store, TINY)
        report = run_experiment("fig14", store, TINY)
        assert report.simulated == 0
        assert report.stored == report.total_jobs

    def test_main_run_reports_store_usage(self, tmp_path, capsys):
        args = ["run", "fig13", "--store", str(tmp_path),
                "--accesses", "120", "--warmup", "40",
                "--mix-accesses", "80"]
        assert main(args) == 0
        assert "0 from store" in capsys.readouterr().out
        assert main(args) == 0
        assert "0 simulated" in capsys.readouterr().out

    def test_unwritable_store_costs_cache_entries_not_figures(
            self, tmp_path, capsys):
        """Every append after the first two fails: each figure still
        finishes, prints and writes its stats; only entries are lost."""
        code = main(["run", "fig13", "fig14", "--store", str(tmp_path),
                     "--accesses", "120", "--warmup", "40",
                     "--mix-accesses", "80",
                     "--faults", "store.append:eio@after=2"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("fig13", "fig14"):
            assert f"{name}: " in out
            assert (tmp_path / "stats" / f"{name}.json").is_file()
        assert len(ResultStore(tmp_path)) == 2

    def test_main_rejects_unknown_experiment(self, tmp_path, capsys):
        code = main(["run", "nope", "--store", str(tmp_path)])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_main_rejects_stats_out_with_multiple_experiments(
            self, tmp_path, capsys):
        code = main(["run", "fig13", "fig14", "--store", str(tmp_path),
                     "--stats-out", str(tmp_path / "out.json")])
        assert code == 2
        assert "--stats-out" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_main_rejects_check_with_multiple_experiments(
            self, tmp_path, capsys):
        code = main(["run", "fig13", "golden", "--store", str(tmp_path),
                     "--check"])
        assert code == 2
        assert "--check" in capsys.readouterr().err


# ======================================================================
# golden
# ======================================================================
class TestGolden:
    def test_golden_ignores_cli_scale(self, tmp_path):
        report = run_experiment("golden", ResultStore(tmp_path), TINY)
        assert report.stats["scale"] == {
            "accesses": GOLDEN_SCALE.accesses,
            "warmup": GOLDEN_SCALE.warmup,
            "mix_accesses": GOLDEN_SCALE.mix_accesses,
        }

    def test_golden_matches_committed_stats_bit_for_bit(self, tmp_path):
        """The committed golden fingerprint is reproducible on this host.

        This is the in-repo half of the CI determinism job: any behavioural
        change to the simulator, the workload generators or the predictors
        shows up as a diff against GOLDEN_stats.json and must be committed
        deliberately (python -m repro run golden --stats-out
        GOLDEN_stats.json).
        """
        committed = json.loads(
            (REPO_ROOT / "GOLDEN_stats.json").read_text())
        report = run_experiment("golden", ResultStore(tmp_path), TINY)
        assert report.stats == committed

    def test_main_check_flag_passes_against_committed_stats(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["run", "golden", "--store", str(tmp_path), "--check"])
        assert code == 0
        assert "matches" in capsys.readouterr().out

    def test_main_check_flag_fails_on_mismatch(self, tmp_path, capsys):
        reference = tmp_path / "ref.json"
        reference.write_text('{"schema": "other"}\n')
        code = main(["run", "golden", "--store", str(tmp_path / "s"),
                     "--check", str(reference)])
        assert code == 1
        assert "differ" in capsys.readouterr().err


# ======================================================================
# status / figures / clean
# ======================================================================
class TestInspection:
    def test_figures_lists_every_experiment(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_status_tracks_store_coverage(self, tmp_path, capsys):
        args = ["--store", str(tmp_path), "--accesses", "120",
                "--warmup", "40", "--mix-accesses", "80"]
        assert main(["status"] + args) == 0
        assert "complete" not in capsys.readouterr().out

        run_experiment("fig13", ResultStore(tmp_path), TINY)
        assert main(["status"] + args) == 0
        out = capsys.readouterr().out
        assert any("fig13" in line and "complete" in line
                   for line in out.splitlines())

    def test_clean_removes_store_and_stats(self, tmp_path, capsys):
        run_experiment("fig13", ResultStore(tmp_path), TINY)
        assert (tmp_path / "shards").is_dir()
        assert main(["clean", "--store", str(tmp_path)]) == 0
        assert not (tmp_path / "shards").exists()
        assert not (tmp_path / "stats").exists()
        assert "removed" in capsys.readouterr().out


# ======================================================================
# store maintenance subcommand
# ======================================================================
class TestStoreCmd:
    def test_info_summarises_the_store(self, tmp_path, capsys):
        run_experiment("fig13", ResultStore(tmp_path), TINY)
        assert main(["store", "info", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for field in ("shards", "entries", "bytes", "index"):
            assert field in out

    def test_fsck_salvages_and_signals_damage(self, tmp_path, capsys):
        run_experiment("fig13", ResultStore(tmp_path), TINY)
        shard = next(iter(sorted((tmp_path / "shards").glob("*.jsonl"))))
        with shard.open("ab") as handle:
            handle.write(b"garbage line\n")
        assert main(["store", "fsck", "--store", str(tmp_path)]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        # Clean after salvage.
        assert main(["store", "fsck", "--store", str(tmp_path)]) == 0
        report = run_experiment("fig13", ResultStore(tmp_path), TINY)
        assert report.simulated == 0

    def test_library_warnings_name_their_component(self, tmp_path, capsys):
        run_experiment("fig13", ResultStore(tmp_path), TINY)
        shard = next(iter(sorted((tmp_path / "shards").glob("*.jsonl"))))
        with shard.open("ab") as handle:
            handle.write(b'{"key": "trunc')  # interrupted append
        assert main(["store", "info", "--store", str(tmp_path)]) == 0
        assert "repro.sim.store: ignoring torn trailing line" \
            in capsys.readouterr().err

    def test_compact_drops_superseded_entries(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        run_experiment("fig13", store, TINY)
        run_experiment("fig13", store, TINY, force=True)
        assert main(["store", "compact", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "superseded lines removed" in out
        report = run_experiment("fig13", ResultStore(tmp_path), TINY)
        assert report.simulated == 0


# ======================================================================
# serve (argument validation; daemon behaviour lives in test_service.py)
# ======================================================================
class TestServe:
    def test_serve_rejects_port_and_socket_together(self, tmp_path,
                                                    capsys):
        code = main(["serve", "--port", "0", "--socket",
                     str(tmp_path / "s.sock"), "--store", str(tmp_path)])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_serve_help_documents_the_daemon(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--port", "--socket", "--jobs", "--ready-file"):
            assert flag in out

    @pytest.mark.parametrize("argv", [
        ["serve", "--fleet"],
        ["stats", "--fleet", "--remote", "7341"],
        ["store", "migrate"],
    ], ids=["serve-fleet", "stats-fleet", "store-migrate"])
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


# ======================================================================
# the sweep experiment (store scale-out grid)
# ======================================================================
class TestSweep:
    def test_sweep_is_opt_in_not_part_of_all(self):
        from repro.cli import _resolve_targets

        assert "sweep" not in _resolve_targets([])
        assert "sweep" not in _resolve_targets(["all"])
        assert "sweep" in _resolve_targets(["all", "sweep"])
        assert _resolve_targets(["sweep"]) == ["sweep"]

    def test_sweep_is_several_times_the_paper_grid(self):
        from repro.sim.store import try_job_key

        sweep_jobs = EXPERIMENTS["sweep"].jobs(TINY)
        paper_grid = EXPERIMENTS["fig11"].jobs(TINY)
        assert len(sweep_jobs) >= 3 * len(paper_grid)
        keys = [try_job_key(job) for job in sweep_jobs]
        assert None not in keys
        assert len(set(keys)) == len(keys)  # every cell is distinct

    @pytest.mark.slow
    def test_sweep_summary_reports_seed_spread(self, tmp_path):
        scale = Scale(accesses=40, warmup=10, mix_accesses=30)
        report = run_experiment("sweep", ResultStore(tmp_path), scale)
        assert report.total_jobs == report.simulated
        stats = report.stats
        assert stats["jobs"] == report.total_jobs
        seeds = [str(seed) for seed in stats["seeds"]]
        assert len(seeds) >= 3
        for seed in seeds:
            assert stats["single_core_geomean_speedup"][seed]["lp"] > 0
            assert stats["mix_lp_geomean_speedup"][seed] > 0
        spread = stats["lp_seed_spread"]
        assert spread["min"] <= spread["mean"] <= spread["max"]
        # The store now holds a grid several times the paper's largest.
        store = ResultStore(tmp_path)
        assert len(store) == report.total_jobs
        assert len(list((tmp_path / "shards").glob("*.jsonl"))) > 10


# ======================================================================
# trace
# ======================================================================
class TestTrace:
    def test_trace_reports_footprint_and_mix(self, capsys):
        assert main(["trace", "gapbs.pr", "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "gapbs.pr" in out
        for field in ("accesses", "loads / stores", "unique blocks",
                      "unique pages", "footprint", "buffer size"):
            assert field in out

    def test_trace_save_round_trips(self, tmp_path, capsys):
        from repro.trace import TraceBuffer
        from repro.workloads import build_workload

        path = tmp_path / "stream.npz"
        assert main(["trace", "stream", "--accesses", "500", "--seed", "3",
                     "--save", str(path)]) == 0
        assert "buffer written to" in capsys.readouterr().out
        loaded = TraceBuffer.load(path)
        assert loaded == build_workload("stream").generate(500, seed=3)

    def test_trace_rejects_unknown_workload(self, capsys):
        assert main(["trace", "notaworkload"]) == 2
        assert "unknown workload" in capsys.readouterr().err


# ======================================================================
# trace cache (cold vs warm runs)
# ======================================================================
class TestTraceCacheRuns:
    @pytest.fixture(autouse=True)
    def _cold_trace_cache(self):
        """Spilling happens on in-memory misses, so start from a cold cache
        (earlier tests in this process may have warmed the global one)."""
        from repro.sim.engine import TRACE_CACHE

        TRACE_CACHE.clear()
        yield
        TRACE_CACHE.clear()

    def test_run_spills_traces_under_store(self, tmp_path):
        args = ["run", "fig13", "--store", str(tmp_path),
                "--accesses", "120", "--warmup", "40",
                "--mix-accesses", "80"]
        assert main(args) == 0
        assert list((tmp_path / "traces").glob("*.npz"))

    def test_warm_run_from_spilled_traces_is_byte_identical(self, tmp_path):
        cold_store = tmp_path / "cold"
        warm_store = tmp_path / "warm"
        scale = ["--accesses", "120", "--warmup", "40",
                 "--mix-accesses", "80"]
        assert main(["run", "fig13", "--store", str(cold_store)]
                    + scale) == 0
        # Drop the in-memory cache so the warm run must load from disk.
        from repro.sim.engine import TRACE_CACHE

        TRACE_CACHE.clear()
        assert main(["run", "fig13", "--store", str(warm_store),
                     "--trace-dir", str(cold_store / "traces")] + scale) == 0
        assert TRACE_CACHE.disk_hits > 0
        cold_shards = {path.name: path.read_bytes()
                       for path in sorted((cold_store / "shards")
                                          .glob("*.jsonl"))}
        warm_shards = {path.name: path.read_bytes()
                       for path in sorted((warm_store / "shards")
                                          .glob("*.jsonl"))}
        assert cold_shards and cold_shards == warm_shards
        # The warm run generated nothing new: no fresh spills appeared.
        cold_traces = sorted((cold_store / "traces").glob("*.npz"))
        assert not (warm_store / "traces").exists()
        assert cold_traces

    def test_empty_trace_dir_disables_spilling(self, tmp_path):
        args = ["run", "fig13", "--store", str(tmp_path),
                "--trace-dir", "", "--accesses", "120", "--warmup", "40",
                "--mix-accesses", "80"]
        assert main(args) == 0
        assert not (tmp_path / "traces").exists()

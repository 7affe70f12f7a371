"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tq" in out
        assert "sharers" in out

    def test_run_quick(self, capsys):
        code = main(["run", "bs", "--policy", "baseline", "--config", "small",
                     "--scale", "0.25", "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated cycles" in out
        assert "PASSED" in out

    def test_run_with_energy_stats_trace(self, capsys):
        code = main(["run", "sc", "--config", "small", "--scale", "0.25",
                     "--policy", "sharers", "--energy", "--stats", "--trace", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy breakdown" in out
        assert "statistics" in out
        assert "protocol trace" in out

    def test_compare(self, capsys):
        code = main(["compare", "tq", "--config", "small", "--scale", "0.25",
                     "--policies", "baseline", "owner"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "owner" in out
        assert "speedup %" in out

    def test_profile(self, capsys, tmp_path):
        pstats_out = tmp_path / "profile.pstats"
        code = main(["profile", "bs", "--config", "small", "--scale", "0.25",
                     "--limit", "5", "--pstats-out", str(pstats_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "executed events" in out
        assert "fabric messages" in out
        assert "busiest controllers" in out
        assert "hot functions" in out
        assert pstats_out.exists()

    def test_profile_sort_options(self, capsys):
        code = main(["profile", "bs", "--config", "small", "--scale", "0.25",
                     "--sort", "cumulative", "--limit", "3"])
        assert code == 0
        assert "cumulative" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonexistent"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestLitmusCommand:
    def test_list(self, capsys):
        assert main(["litmus", "--list"]) == 0
        out = capsys.readouterr().out
        assert "mp" in out and "dirty_handoff" in out
        assert "policy variants" in out
        assert "sharers+banked" in out

    def test_selected_tests_small_sweep(self, capsys):
        code = main(["litmus", "mp", "coww", "--schedules", "2",
                     "--policies", "baseline", "sharers"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 tests x 2 policies x 2 schedules = 8 runs" in out
        assert "0 failure(s)" in out

    def test_verbose_prints_each_run(self, capsys):
        assert main(["litmus", "coww", "--schedules", "2",
                     "--policies", "baseline", "-v"]) == 0
        out = capsys.readouterr().out
        assert "coww @ baseline @ s0:canonical: ok" in out

    def test_unknown_policy_rejected(self, capsys):
        code = main(["litmus", "mp", "--policies", "bogus"])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_test_rejected(self):
        with pytest.raises(KeyError, match="unknown litmus"):
            main(["litmus", "bogus"])

    def test_replay_artifact(self, capsys, tmp_path):
        from repro.verify.litmus import (
            Schedule,
            dump_artifact,
            get_litmus,
            minimize_failure,
        )

        # a postcondition failure needs no fault hook: demand the wrong value
        test = get_litmus("coww")
        broken = test.with_agents(
            [[("store", "x", 1), ("load", "x", "r")]], [], []
        )
        broken.postcondition = test.postcondition  # expects x == 2
        result = minimize_failure(broken, "baseline", Schedule(0))
        assert result is not None
        path = str(tmp_path / "repro.json")
        dump_artifact(result, path)
        code = main(["litmus", "--replay", path, "--trace", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced: yes" in out
        assert "protocol trace" in out


class TestFiguresCommand:
    FIGURE_6 = ["figures", "--figure", "6", "--scale", "0.25"]

    def test_one_figure_skips_the_tables(self, capsys):
        assert main(self.FIGURE_6 + ["--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Figure 4" not in out
        assert "Table II" not in out
        assert "store:" not in out

    def test_figures_without_store_writes_nothing(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "env.sqlite"))
        assert main(self.FIGURE_6 + ["--jobs", "1"]) == 0
        assert "Figure 6" in capsys.readouterr().out
        assert not (tmp_path / "env.sqlite").exists()

    def test_bare_store_uses_the_default_path(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "env.sqlite"))
        args = self.FIGURE_6 + ["--jobs", "2", "--store"]
        assert main(args) == 0
        assert "0 hit(s)" in capsys.readouterr().out

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "Figure 6" in warm
        assert "0 miss(es)" in warm
        assert (tmp_path / "env.sqlite").exists()

    def test_figures_on_store_cold_then_warm(self, tmp_path, capsys):
        args = self.FIGURE_6 + ["--jobs", "2",
                                "--store", str(tmp_path / "figures.sqlite")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "0 hit(s)" in out

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "Figure 6" in warm
        assert "0 miss(es)" in warm


class TestStoreCommand:
    def _fill(self, path, capsys):
        assert main(["figures", "--figure", "6", "--scale", "0.25",
                     "--jobs", "1", "--store", path]) == 0
        capsys.readouterr()

    def test_stats(self, tmp_path, capsys):
        path = str(tmp_path / "s.sqlite")
        self._fill(path, capsys)
        assert main(["store", "stats", "--path", path]) == 0
        out = capsys.readouterr().out
        assert "rows" in out and "cell" in out

    def test_gc_and_clear(self, tmp_path, capsys):
        path = str(tmp_path / "s.sqlite")
        self._fill(path, capsys)
        assert main(["store", "gc", "--path", path]) == 0
        assert "reclaimed 0 row(s)" in capsys.readouterr().out
        assert main(["store", "clear", "--path", path]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_export_import_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "s.sqlite")
        snapshot = str(tmp_path / "snap.jsonl")
        self._fill(path, capsys)
        assert main(["store", "export", snapshot, "--path", path]) == 0
        assert "exported" in capsys.readouterr().out
        fresh = str(tmp_path / "fresh.sqlite")
        assert main(["store", "import", snapshot, "--path", fresh]) == 0
        assert "imported" in capsys.readouterr().out
        # the imported store serves the same figure with zero misses
        assert main(["figures", "--figure", "6", "--scale", "0.25",
                     "--jobs", "1", "--store", fresh]) == 0
        assert "0 miss(es)" in capsys.readouterr().out

    def test_export_without_file_rejected(self, tmp_path, capsys):
        assert main(["store", "export",
                     "--path", str(tmp_path / "s.sqlite")]) == 2
        assert "needs a file" in capsys.readouterr().err


class TestLitmusStoreOption:
    def test_litmus_store_memoizes(self, tmp_path, capsys):
        path = str(tmp_path / "litmus.sqlite")
        args = ["litmus", "mp", "--schedules", "1",
                "--policies", "baseline", "--store", path]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 warm hit(s)" in out and "1 new row(s)" in out

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "1 warm hit(s)" in warm and "0 new row(s)" in warm

"""Campaign determinism (satellite 1), resume semantics, and store reuse."""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

from repro.store import ResultStore
from repro.verify.fuzz.campaign import (
    COVERAGE_FILE,
    REPORT_FILE,
    run_campaign,
)
from repro.verify.fuzz.corpus import Corpus


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestDeterminism:
    def test_same_seed_and_budget_is_byte_identical(self, tmp_path):
        """Satellite 1: two fresh campaigns with the same (seed, budget,
        policies) produce identical corpus digests and byte-identical
        coverage and report files."""
        results = []
        for name in ("a", "b"):
            corpus_dir = str(tmp_path / name)
            result = run_campaign(
                seed=0, budget=30, corpus_dir=corpus_dir,
                policies=["baseline"], jobs=2, minimize_runs=60,
            )
            results.append((corpus_dir, result))
        (dir_a, first), (dir_b, second) = results
        assert first.corpus_digest == second.corpus_digest
        assert Corpus(dir_a).digests() == Corpus(dir_b).digests()
        assert _read(os.path.join(dir_a, COVERAGE_FILE)) == _read(
            os.path.join(dir_b, COVERAGE_FILE)
        )
        assert _read(os.path.join(dir_a, REPORT_FILE)) == _read(
            os.path.join(dir_b, REPORT_FILE)
        )
        assert first.report_data == second.report_data

    def test_campaign_reports_per_policy_percentages(self, tmp_path):
        result = run_campaign(
            seed=1, budget=10, corpus_dir=str(tmp_path / "c"),
            policies=["baseline"], jobs=1, minimize_runs=40,
        )
        entry = result.report_data["policies"]["baseline"]
        assert 0 < entry["percent"] < 100
        assert entry["dead_candidates"] == []
        assert result.runs == 10
        assert result.iterations == 10
        assert "baseline" in result.report_text


class TestResume:
    def test_rerun_into_same_corpus_adds_nothing(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        first = run_campaign(
            seed=0, budget=20, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=2, minimize_runs=60,
        )
        assert first.new_entries > 0
        second = run_campaign(
            seed=0, budget=20, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=2, minimize_runs=60,
        )
        assert second.new_entries == 0
        assert second.corpus_digest == first.corpus_digest
        assert second.report_data == first.report_data

    def test_larger_budget_extends_a_finished_campaign(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        small = run_campaign(
            seed=0, budget=10, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=2, minimize_runs=40,
        )
        grown = run_campaign(
            seed=0, budget=30, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=2, minimize_runs=40,
        )
        small_cov = small.report_data["policies"]["baseline"]["covered"]
        grown_cov = grown.report_data["policies"]["baseline"]["covered"]
        assert grown_cov >= small_cov
        assert len(Corpus(corpus_dir)) >= small.new_entries


ROOT = pathlib.Path(__file__).resolve().parents[3]

#: two batches of 25 programs x 3 policies: coverage.json first appears
#: after the first, so a kill then lands in the second
KILL_BUDGET = 150


def _fuzz_command(workdir, name):
    return [
        sys.executable, "-m", "repro", "fuzz", "run", "--seed", "0",
        "--budget", str(KILL_BUDGET), "--jobs", "1",
        "--corpus", str(workdir / name), "--store", str(workdir / f"{name}.sqlite"),
    ]


def _finish(command, env):
    proc = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return re.search(r"digest ([0-9a-f]{64})", proc.stdout).group(1)


def _files(corpus_dir):
    return {path.name: path.read_bytes()
            for path in sorted(corpus_dir.iterdir()) if path.is_file()}


class TestKilledCampaign:
    def test_sigkill_mid_run_then_rerun_matches_uninterrupted(self, tmp_path):
        """A campaign killed part-way (after its first coverage checkpoint)
        resumes by re-running the same command, to the digest, coverage
        and corpus files of a campaign that was never interrupted."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        killed = subprocess.Popen(_fuzz_command(tmp_path, "A"), env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        checkpoint = tmp_path / "A" / COVERAGE_FILE
        deadline = time.monotonic() + 60
        while not checkpoint.exists() and killed.poll() is None:
            assert time.monotonic() < deadline, "no coverage checkpoint"
            time.sleep(0.01)
        killed.send_signal(signal.SIGKILL)
        assert killed.wait(timeout=30) == -signal.SIGKILL, (
            "the campaign finished before it could be killed"
        )
        assert not (tmp_path / "A" / REPORT_FILE).exists()

        resumed = _finish(_fuzz_command(tmp_path, "A"), env)
        uninterrupted = _finish(_fuzz_command(tmp_path, "B"), env)
        assert resumed == uninterrupted
        assert _files(tmp_path / "A") == _files(tmp_path / "B")


class TestDirectedCampaign:
    def test_targets_are_tracked_and_reported(self, tmp_path):
        """Directed mode biases generation via profile_for_targets and
        reports which target rows any swept policy reached.  The target
        here is one the directed seed-1 stream hits by slot 12."""
        target = ("dir-table1", "S", "DirEvict")
        result = run_campaign(
            seed=1, budget=13, corpus_dir=str(tmp_path / "c"),
            policies=["sharers"], jobs=2, minimize_runs=40,
            targets=[target],
        )
        assert result.targets == [target]
        assert target in result.targets_hit
        assert "HIT" in result.describe()

    def test_directed_and_default_campaigns_diverge(self, tmp_path):
        """A directed campaign must actually change the generated stream
        (different corpus digest than the default campaign at the same
        seed and budget)."""
        default = run_campaign(
            seed=3, budget=8, corpus_dir=str(tmp_path / "default"),
            policies=["baseline"], jobs=2, minimize_runs=40,
        )
        directed = run_campaign(
            seed=3, budget=8, corpus_dir=str(tmp_path / "directed"),
            policies=["baseline"], jobs=2, minimize_runs=40,
            targets=[("corepair-moesi", "M", "Evict")],
        )
        assert directed.corpus_digest != default.corpus_digest


class TestStoreBackedCampaign:
    def test_warm_rerun_matches_cold(self, tmp_path):
        with ResultStore(tmp_path / "results.sqlite") as store:
            cold = run_campaign(
                seed=0, budget=16, corpus_dir=str(tmp_path / "cold"),
                policies=["baseline"], store=store, jobs=2,
                minimize_runs=40,
            )
            warm = run_campaign(
                seed=0, budget=16, corpus_dir=str(tmp_path / "warm"),
                policies=["baseline"], store=store, jobs=2,
                minimize_runs=40,
            )
        assert warm.corpus_digest == cold.corpus_digest
        assert warm.report_data == cold.report_data


class TestArtifacts:
    def test_coverage_file_is_loadable_json(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        run_campaign(
            seed=0, budget=10, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=1, minimize_runs=40,
        )
        with open(os.path.join(corpus_dir, COVERAGE_FILE)) as handle:
            coverage = json.load(handle)
        assert coverage["format"] == "repro-fuzz-coverage/1"
        with open(os.path.join(corpus_dir, REPORT_FILE)) as handle:
            report = json.load(handle)
        assert report["format"] == "repro-fuzz-report/1"

    def test_corpus_entries_replay_clean(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        run_campaign(
            seed=0, budget=10, corpus_dir=corpus_dir,
            policies=["baseline"], jobs=1, minimize_runs=40,
        )
        corpus = Corpus(corpus_dir)
        assert len(corpus) > 0
        for entry in corpus.entries()[:3]:
            outcome = entry.replay()
            assert outcome.ok
            assert set(entry.new_coverage) <= set(outcome.coverage)

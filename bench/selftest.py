"""Self-tests of the benchmark: every check rejects a corrupted output, the
tracer survives a missing function, and tiny runs of each workload print a
well-formed result line.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's own test collection.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def _topics(rng, k=4, v=12):
    return [rng.dirichlet(np.full(v, 0.3), size=k) for _ in range(2)]


class TestTrainChecks:
    def test_model_file_rejects_unnormalized_rows_and_indefinite_sigma(self, rng):
        topics = _topics(rng)
        payload = {
            "K": 4,
            "vocabularies": {"a": [f"a{i}" for i in range(12)], "b": [f"b{i}" for i in range(12)]},
            "log_beta": {"a": np.log(topics[0]).ravel().tolist(), "b": np.log(topics[1]).ravel().tolist()},
            "sigma0": np.eye(4).ravel().tolist(),
        }
        assert checks.check_model_file(payload) == []
        broken = dict(payload, log_beta=dict(payload["log_beta"], a=(np.log(topics[0]) + 0.1).ravel().tolist()))
        assert checks.check_model_file(broken)
        indefinite = np.eye(4)
        indefinite[0, 1] = indefinite[1, 0] = 1.5
        assert checks.check_model_file(dict(payload, sigma0=indefinite.ravel().tolist()))

    def test_recovery_matches_permuted_topics_and_rejects_uniform(self, rng):
        truth = _topics(rng)
        permuted = [t[[2, 0, 3, 1]] for t in truth]
        assert checks.match_topics(permuted, truth) == ([2, 0, 3, 1], 0.0)
        assert checks.check_topic_recovery([permuted, truth], truth, 0.01) == []
        uniform = [np.full_like(t, 1.0 / t.shape[1]) for t in truth]
        assert checks.check_topic_recovery([permuted, uniform], truth, 0.1)


class TestCohortChecks:
    def test_permuted_proportions_are_rejected(self, rng):
        planted = rng.dirichlet(np.full(6, 0.2), size=200)
        assert checks.check_proportions(planted, planted, 0.9, 1e-3) == []
        permuted = planted[:, [1, 2, 3, 4, 5, 0]]
        assert checks.check_proportions(permuted, planted, 0.9, 1e-3)

    def test_conservation_rejects_lost_mass(self):
        assert checks.check_conservation([10.0, 5.0], [10, 5], 1.0) == []
        assert checks.check_conservation([10.0, 4.9], [10, 5], 1.0)
        assert checks.check_conservation([10.0, 5.0], [10, 5], 0.99)

    def test_coverage_matches_scan_and_rejects_a_shifted_bucket(self, rng):
        proportions = rng.dirichlet(np.full(30, 0.3), size=50)
        counts = [checks.scan_coverage_count(list(p), 0.9) for p in proportions]
        buckets = ((1, 5), (6, 20), (21, None))
        fractions = {
            (lo, hi): sum(1 for c in counts if c >= lo and (hi is None or c <= hi)) / 50
            for lo, hi in buckets
        }
        assert checks.check_coverage(fractions, proportions, 0.9) == []
        shifted = dict(fractions)
        shifted[(1, 5)] += 0.02
        shifted[(6, 20)] -= 0.02
        assert checks.check_coverage(shifted, proportions, 0.9)

    def test_coverage_scan_counts_ties_with_slack(self):
        assert checks.scan_coverage_count([0.1] * 10, 0.9) == 9
        assert checks.scan_coverage_count([0.5, 0.5], 1.0) == 2

    def test_swapped_or_sign_flipped_pair_is_rejected(self):
        planted = [(5, 6, 0.8), (10, 20, -0.7)]
        assert checks.check_edges([(5, 6, 0.8), (10, 20, -0.7)], planted, 0.5) == []
        assert checks.check_edges([(5, 7, 0.8), (10, 20, -0.7)], planted, 0.5)
        assert checks.check_edges([(5, 6, 0.8), (10, 20, 0.7)], planted, 0.5)
        assert checks.check_edges([(5, 6, 0.8)], planted, 0.5)


class TestSummarizeChecks:
    @pytest.fixture
    def sankey(self):
        bins = ["visit0", "visit1", "visit2"]
        selected = [7, 3]
        return {
            "record_id": "p0000",
            "bins": bins,
            "nodes": [{"phenotype": k, "bin": b, "value": 0.4} for b in bins for k in selected],
            "links": [
                {"phenotype": k, "from_bin": a, "to_bin": b, "value": 0.4}
                for a, b in zip(bins, bins[1:])
                for k in selected
            ],
        }

    def test_dropped_node_is_rejected(self, sankey):
        assert checks.check_sankey(sankey, sankey["bins"], 2) == []
        dropped = dict(sankey, nodes=sankey["nodes"][:-1])
        assert checks.check_sankey(dropped, sankey["bins"], 2)

    def test_reordered_bins_are_rejected(self, sankey):
        assert checks.check_sankey(sankey, ["visit1", "visit0", "visit2"], 2)

    def test_wrong_final_phenotype_is_rejected(self, sankey):
        assert checks.check_final_first(sankey, 7) == []
        assert checks.check_final_first(sankey, 3)

    def test_salience_residual_sum(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text(
            "bin,phenotype,salience\nv0,7,0.5\nv0,3,0.25\nv0,residual,0.25\n"
            "v1,7,0.6\nv1,3,0.25\nv1,residual,0.25\n"
        )
        failures = checks.check_salience_residual(checks.read_trajectory_csv(path))
        assert len(failures) == 1 and "v1" in failures[0]


class TestTracing:
    def test_self_time_excludes_children_and_spans_have_parents(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            from phenotopics import learning
            from phenotopics.corpus import RecordBags, Vocabulary, Corpus

            corpus = Corpus((Vocabulary("dx", ("a", "b", "c")),), (RecordBags("r0", ({0: 3, 2: 1},)),
                                                                    RecordBags("r1", ({1: 2},))))
            learning.train(corpus, learning.TrainConfig(K=2, max_em_iters=2))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        train = summary["by_defined"]["learning.train"]
        assert train[0] == 1 and train[2] < train[1]
        assert summary["by_site"]["learning.infer_document"][0] == 4
        assert summary["counters"]["learning.em_iterations"] == 2
        assert max(tracer.span_parent) >= 0
        metrics, absent = tracing.per_layer_metrics([summary], 0.0)
        assert absent == []
        assert metrics["variational.records_inferred"]["value"] == 4
        spec = _benchmark_spec()
        assert {m["name"] for m in spec["per_layer"]} == set(metrics)

    def test_missing_function_is_reported_absent(self, monkeypatch):
        from phenotopics import learning

        monkeypatch.delattr(learning, "m_step")
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        metrics, absent = tracing.per_layer_metrics([tracer.summary()], 0.0)
        assert absent == ["learning.m_step"]
        assert metrics["trace.absent_functions"]["value"] == 1
        assert metrics["learning.m_step_s"]["value"] == 0

    def test_observer_error_does_not_fail_the_call(self, monkeypatch):
        monkeypatch.setitem(tracing.OBSERVERS, "numerics.softmax", lambda *a: 1 / 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            from phenotopics import numerics

            assert numerics.softmax([0.0, 0.0])[0] == 0.5
        finally:
            tracer.uninstall()
        assert "numerics.softmax" in tracer.observer_errors


class TestSpeedMeter:
    def test_scaled_leaves_out_probes_and_converts_at_their_speed(self):
        meter = speed.SpeedMeter()
        meter.starts, meter.took = [1.0, 2.0, 5.0], [0.002, 0.001, 0.004]
        ref = speed.REFERENCE_PROBE_S
        # two probes inside: half and full reference speed, 1.0 s of work
        expected = 1.0 * (ref / 0.002 + ref / 0.001) / 2
        assert meter.scaled(0.5, 2.5, cpu=1.003) == pytest.approx(expected)
        assert meter.scaled(0.5, 2.5) == pytest.approx((2.0 - 0.003) * expected)
        # no probe inside: the next one's speed
        assert meter.scaled(3.0, 3.5) == pytest.approx(0.5 * ref / 0.004)

    def test_a_running_meter_probes_and_stops(self, monkeypatch):
        monkeypatch.setattr(speed, "INTERVAL_S", 0.005)
        meter = speed.SpeedMeter()
        meter.start()
        try:
            start = time.process_time()
            while time.process_time() - start < 0.1:
                speed.reference_work()
            end = time.process_time()
        finally:
            meter.stop()
        assert len(meter.took) >= 2
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert 0.0 < meter.scaled(start, end) < 1.0

    def test_stopping_before_any_interval_still_probes_once(self, monkeypatch):
        monkeypatch.setattr(speed, "INTERVAL_S", 10.0)
        meter = speed.SpeedMeter()
        meter.start()
        meter.stop()
        assert len(meter.took) == 1


@pytest.mark.parametrize("workload", ["train-correlated", "cohort-k50", "summarize-k50"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = _benchmark_spec()
    names = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload != "train-correlated":  # tiny training cohorts recover poorly
        assert result["correct"] and result["failed"] == 0, proc.stderr[-2000:]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("cohort-k50", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_survives_a_renamed_function(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    package = tmp_path / "src" / "phenotopics"
    for name in ("numerics.py", "variational.py", "__init__.py"):
        path = package / name
        path.write_text(path.read_text().replace("maximize_concave", "maximize_newton"))
    proc = _run("cohort-k50", 1, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert result["metrics"]["trace.absent_functions"]["value"] == 1
    assert result["metrics"]["numerics.newton_calls"]["value"] == 0
    assert "numerics.maximize_concave" in proc.stderr

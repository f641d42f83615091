"""The timed phase of one benchmark run, in a process of its own.

``python3 bench/worker.py JOB_JSON`` reads the job that ``run.py`` wrote,
runs whole rounds of the workload's operations against the inputs on disk,
checks every round's outputs, and writes ``result.json`` next to the job.
Its peak RSS is the workload's, apart from the process that made the inputs.

A workload is a list of ``items``; one operation is ``op(item, out)``, and
a round is every item once, between ``begin_round`` and ``end_round``.
Untraced runs go through public names only, and convert every operation's
CPU time to the reference speed with a :class:`speed.SpeedMeter`. A traced
run does every operation twice, untraced and traced, back to back; the sum of
the traced minus the untraced CPU time is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import numpy as np

from phenotopics import cli, learning, phenotype, summarize
from phenotopics import corpus as corpus_mod

import checks
from speed import SpeedMeter
from tracing import Tracer

# Training runs a fixed number of EM iterations from initialisation (no
# tolerance, so the CLI exits 3, "not converged", after writing the model).
# The iterations that convergence takes swing from about 30 to over 100
# between seeds of the same cohort shape, which no run length here averages out.
EM_ITERS = 10
# Mean matched TV over a round's cohorts after 10 iterations: 0.42-0.53 over
# seeds 101-120 (mean 0.484, sd 0.024); rows that learned nothing (uniform)
# score 0.79 against the planted blocks. The bound is that mean plus four sd.
MAX_MEAN_TV = 0.58
COVERAGE_MASS = 0.9
CORR_THRESHOLD = 0.5
MIN_TOP1 = 0.9
MAX_PROPORTION_MAE = 0.004
TOP_N = 5


class Checker:
    """Counts checks as operations and keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def run(self, label, check):
        """Run ``check()``, a list of failure messages; raising counts as failing."""
        self.attempted += 1
        try:
            failures = check()
        except Exception as exc:  # a broken output counts as a failed check
            failures = [f"{type(exc).__name__}: {exc}"]
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(failures)}")


def _cpu():
    """User plus system seconds of this process and of any child it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read(directory, name):
    return _load_json(os.path.join(directory, name))


class TrainWorkload:
    """Ten EM iterations of ``phenotopics train`` on each sampled cohort."""

    def __init__(self, job):
        self.inputs = job["inputs"]
        self.truth = _load_json(os.path.join(self.inputs, "truth.json"))
        self.items = self.truth["cohorts"]
        self.outputs = []

    def begin_round(self):
        pass

    def op(self, cohort, out):
        target = os.path.join(out, cohort["name"])
        code = cli.main([
            "train", "--corpus", os.path.join(self.inputs, cohort["name"]),
            "--k", str(len(self.truth["topics"][0])), "--seed", str(cohort["seed"]),
            "--em-tol", "0", "--max-em-iters", str(EM_ITERS),
            "--threads", "1", "--out", target,
        ])
        return cohort["name"], target, code

    def end_round(self, outputs):
        self.outputs.append(outputs)

    def check(self, checker):
        truth = [np.asarray(t) for t in self.truth["topics"]]
        for r, outputs in enumerate(self.outputs):
            for name, target, code in outputs:
                checker.run(f"round {r} {name} iterations", lambda: checks.check_fixed_iterations(
                    code, _read(target, "manifest.json"), EM_ITERS))
                checker.run(f"round {r} {name} objective", lambda: checks.check_objective_rose(
                    os.path.join(target, "history.csv"), EM_ITERS))
                checker.run(f"round {r} {name} model file", lambda: checks.check_model_file(
                    _read(target, "model.json")))
            checker.run(f"round {r} recovery", lambda: checks.check_topic_recovery(
                [checks.model_topics(_read(target, "model.json")) for _, target, _ in outputs],
                truth, MAX_MEAN_TV))


class CohortWorkload:
    """What ``coverage`` and ``phenotypes`` call, shard by shard, on one K=50
    cohort."""

    def __init__(self, job):
        self.inputs = job["inputs"]
        truth = np.load(os.path.join(self.inputs, "truth.npz"))
        self.planted = truth["proportions"]
        self.totals = truth["totals"]
        meta = _load_json(os.path.join(self.inputs, "truth.json"))
        self.pairs = [tuple(p) for p in meta["pairs"]]
        self.label_type = meta["label_type"]
        self.items = meta["shards"]
        self.model = None
        self.results = []

    def begin_round(self):
        # The model is loaded once per round, as by a service that keeps it in
        # memory; summarize-k50 is the workload that pays a load per call.
        self.model = learning.load_model(os.path.join(self.inputs, "model.json"))

    def op(self, shard, out):
        cohort = corpus_mod.load_corpus(os.path.join(self.inputs, shard))
        shard_model = learning.attach_posteriors(self.model, cohort, threads=1)
        fractions = summarize.coverage_histogram(shard_model, mass=COVERAGE_MASS)
        phenotype.extract_phenotypes(shard_model, top_n=10, label_type=self.label_type)
        graph = phenotype.correlation_graph(shard_model, threshold=CORR_THRESHOLD)
        return shard_model, fractions, graph.edges

    def end_round(self, attached):
        # Every shard's posteriors stay alive until here, as they would in one
        # pass over the whole cohort; only what the checks read is kept.
        posteriors = [p for shard_model, _, _ in attached for p in shard_model.doc_posteriors]
        self.results.append(
            {
                "expected_sums": np.stack([p.expected_counts.sum(axis=1) for p in posteriors]),
                "proportions": np.stack([p.proportions for p in posteriors]),
                "shard_sizes": [len(m.doc_posteriors) for m, _, _ in attached],
                "fractions": [fractions for _, fractions, _ in attached],
                "edges": [edges for _, _, edges in attached],
            }
        )

    def check(self, checker):
        for r, result in enumerate(self.results):
            proportions = result["proportions"]
            if len(proportions) != len(self.totals):
                checker.run(f"round {r} records", lambda: [f"{len(proportions)} posteriors"])
                continue
            for d in range(len(proportions)):
                checker.run(f"round {r} record {d} conservation", lambda: checks.check_conservation(
                    result["expected_sums"][d], self.totals[d], float(proportions[d].sum())))
            checker.run(f"round {r} proportions", lambda: checks.check_proportions(
                proportions, self.planted, MIN_TOP1, MAX_PROPORTION_MAE))
            lo = 0
            for s, size in enumerate(result["shard_sizes"]):
                shard = proportions[lo:lo + size]
                lo += size
                checker.run(f"round {r} shard {s} coverage", lambda: checks.check_coverage(
                    result["fractions"][s], shard, COVERAGE_MASS))
                checker.run(f"round {r} shard {s} relatedness", lambda: checks.check_edges(
                    result["edges"][s], self.pairs, CORR_THRESHOLD))


class SummarizeWorkload:
    """One ``phenotopics summarize`` call per patient against one model file."""

    def __init__(self, job):
        self.inputs = job["inputs"]
        self.truth = _load_json(os.path.join(self.inputs, "truth.json"))
        self.items = sorted(self.truth["finals"])
        self.outputs = []

    def begin_round(self):
        pass

    def op(self, patient, out):
        code = cli.main([
            "summarize", "--model", os.path.join(self.inputs, "model.json"),
            "--record-file", os.path.join(self.inputs, "patients", f"{patient}.jsonl"),
            "--top-n", str(TOP_N), "--threads", "1", "--out", out,
        ])
        return patient, out, code

    def end_round(self, outputs):
        self.outputs += outputs

    def check(self, checker):
        for patient, out, code in self.outputs:
            final = self.truth["finals"][patient]
            trajectory = os.path.join(out, f"trajectory_{patient}.csv")
            sankey = os.path.join(out, f"sankey_{patient}.json")
            checker.run(f"{patient} exit", lambda: checks.check_exit(code))
            checker.run(f"{patient} salience", lambda: checks.check_salience_residual(
                checks.read_trajectory_csv(trajectory)))
            checker.run(f"{patient} sankey", lambda: checks.check_sankey(
                _load_json(sankey), self.truth["bins"], TOP_N))
            checker.run(f"{patient} final phenotype", lambda: checks.check_final_first(
                _load_json(sankey), final))


WORKLOADS = {
    "train-correlated": TrainWorkload,
    "cohort-k50": CohortWorkload,
    "summarize-k50": SummarizeWorkload,
}


def _round_dir(out_dir, index):
    out = os.path.join(out_dir, f"round{index}")
    os.makedirs(out, exist_ok=True)
    return out


def _timed_round(workload, out_dir, index):
    """Run round ``index``; returns each operation's (start, end, CPU seconds),
    start and end as ``time.process_time()`` readings."""
    out = _round_dir(out_dir, index)
    workload.begin_round()
    ops, outputs = [], []
    for item in workload.items:
        start, cpu = time.process_time(), _cpu()
        outputs.append(workload.op(item, out))
        ops.append((start, time.process_time(), _cpu() - cpu))
    workload.end_round(outputs)
    return ops


def _traced_rounds(workload, out_dir, tracer) -> float:
    """Run every operation untraced and traced, back to back and in
    alternating order, into rounds 0 and 1; returns the traced minus the
    untraced CPU seconds. Neighbouring operations see nearly the same machine
    speed, which whole rounds minutes apart do not."""
    plain_out, traced_out = _round_dir(out_dir, 0), _round_dir(out_dir, 1)
    tracer.install()
    try:
        workload.begin_round()  # shared by both; traced, so its layers count
    finally:
        tracer.uninstall()
    plain, traced = [], []
    overhead = 0.0
    for i, item in enumerate(workload.items):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                start = _cpu()
                output = workload.op(item, traced_out if with_trace else plain_out)
                cpu = _cpu() - start
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).append(output)
            overhead += cpu if with_trace else -cpu
    workload.end_round(plain)
    workload.end_round(traced)
    return overhead


def run(job) -> dict:
    workload = WORKLOADS[job["workload"]](job)
    result = {}
    if job["trace"]:
        tracer = Tracer()
        result["overhead_s"] = _traced_rounds(workload, job["out"], tracer)
        tracer.write(os.path.join(job["out"], "spans.jsonl"))
        result["trace"] = tracer.summary()
    else:
        ops = []
        meter = SpeedMeter()
        meter.start()
        try:
            started = time.perf_counter()
            index = 0
            while True:
                round_started = time.perf_counter()
                ops += _timed_round(workload, job["out"], index)
                index += 1
                now = time.perf_counter()
                if now - started + (now - round_started) > job["seconds"]:
                    break
        finally:
            meter.stop()
        result["op_cpu_s"] = [cpu for _, _, cpu in ops]
        result["op_scaled_s"] = [meter.scaled(start, end, cpu) for start, end, cpu in ops]
        result["probes"] = len(meter.took)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checker = Checker()
    try:
        workload.check(checker)
    except Exception:  # outputs so broken that a check could not even start
        checker.attempted += 1
        checker.failed += 1
        checker.messages.append(traceback.format_exc(limit=3))
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        messages=checker.messages,
    )
    return result


def main() -> int:
    job_path = sys.argv[1]
    job = _load_json(job_path)
    result = run(job)
    with open(os.path.join(os.path.dirname(job_path), "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

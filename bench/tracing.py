"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer replaces every public function of the package's layer modules with
a timing wrapper, at the module attribute its caller looks it up through: the
E-step's ``infer_document`` is wrapped as ``learning.infer_document``, the
summarizer's as ``summarize.infer_document``, and the CLI's ``load_model`` as
``cli.load_model``. Each call records a span (name, start, end, parent) and a
few results feed counters (Newton iterations, outer rounds, EM iterations,
file sizes). Span times are process CPU seconds, as the end-to-end metrics
are. Spans stay in memory until :meth:`Tracer.write`.

Nothing here may fail a run: a layer, function or result field that a later
version of the program renames or drops is reported as absent, and an
observer that cannot read a result records the error instead of raising.
Spans assume one thread, which is how the benchmark runs the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

PACKAGE = "phenotopics"
LAYERS = ("corpus", "learning", "variational", "numerics", "summarize", "phenotype", "synth", "cli")


def _path_arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _observe_inference(counters, args, kwargs, result):
    rounds = int(result.iterations)
    counters["variational.records_inferred"] += 1
    counters["variational.outer_rounds_total"] += rounds
    counters["variational.outer_rounds_max"] = max(counters["variational.outer_rounds_max"], rounds)
    counters["variational.nonconverged_records"] += int(not result.converged)


def _observe_newton(counters, args, kwargs, result):
    counters["numerics.newton_calls"] += 1
    counters["numerics.newton_iterations"] += int(result.iterations)
    counters["numerics.line_search_failures"] += int(result.status == "line_search_failure")


def _observe_train(counters, args, kwargs, result):
    counters["learning.em_iterations"] += len(result.history)


def _observe_model_file(position):
    def observe(counters, args, kwargs, result):
        counters["learning.model_bytes"] = os.path.getsize(_path_arg(args, kwargs, position, "path"))

    return observe


def _observe_records_file(counters, args, kwargs, result):
    counters["corpus.records_bytes"] += os.path.getsize(_path_arg(args, kwargs, 0, "path"))


# Keyed by the defining module and name, so every call site shares one observer.
OBSERVERS = {
    "variational.infer_document": _observe_inference,
    "numerics.maximize_concave": _observe_newton,
    "learning.train": _observe_train,
    "learning.load_model": _observe_model_file(0),
    "learning.save_model": _observe_model_file(1),
    "corpus.read_records_jsonl": _observe_records_file,
}


class Tracer:
    """Spans and counters for one traced phase; install, run, uninstall."""

    def __init__(self):
        self.site_names: list = []  # span-name id -> "site_module.attr"
        self.defined_names: list = []  # span-name id -> "defining_module.function"
        self._ids: dict = {}
        self.span_name: list = []
        self.span_start: list = []
        self.span_end: list = []
        self.span_parent: list = []
        self._stack: list = []
        self.counters: Counter = Counter()
        self.wrapped: set = set()  # defined names found in the program
        self.observer_errors: dict = {}
        self._patched: list = []

    def install(self) -> None:
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:  # its functions are then reported absent
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                defined = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                self.wrapped.add(defined)
                setattr(module, attr, self._wrap(f"{layer}.{attr}", defined, value))
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _name_id(self, site: str, defined: str) -> int:
        key = (site, defined)
        if key not in self._ids:
            self._ids[key] = len(self.site_names)
            self.site_names.append(site)
            self.defined_names.append(defined)
        return self._ids[key]

    def _wrap(self, site, defined, fn):
        name_id = self._name_id(site, defined)
        observer = OBSERVERS.get(defined)
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self._stack
        )
        clock = time.process_time  # CPU seconds, like the end-to-end metrics

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if observer is not None:
                try:
                    observer(self.counters, args, kwargs, return_value)
                except Exception as exc:  # a changed result type must not fail the run
                    self.observer_errors[defined] = f"{type(exc).__name__}: {exc}"
            return return_value

        return traced

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds (total minus children)."""
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        by_site: dict = {}
        by_defined: dict = {}
        for i in range(n):
            name_id = self.span_name[i]
            for table, key in (
                (by_site, self.site_names[name_id]),
                (by_defined, self.defined_names[name_id]),
            ):
                entry = table.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration[i]
                entry[2] += duration[i] - child[i]
        return {"by_site": by_site, "by_defined": by_defined}

    def summary(self) -> dict:
        """JSON-ready aggregate and counters, to merge across processes."""
        return {
            **self.aggregate(),
            "counters": dict(self.counters),
            "wrapped": sorted(self.wrapped),
            "observer_errors": self.observer_errors,
        }

    def write(self, path: str) -> None:
        """Spans as JSON lines ``[name, parent, start, end]`` after a header
        line holding the span names."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"site_names": self.site_names, "defined_names": self.defined_names}))
            fh.write("\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"[{self.span_name[i]},{self.span_parent[i]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}]\n"
                )


def _total(*defined):
    return lambda agg: sum(agg["by_defined"].get(d, (0, 0.0, 0.0))[1] for d in defined)


def _self(*defined):
    return lambda agg: sum(agg["by_defined"].get(d, (0, 0.0, 0.0))[2] for d in defined)


def _site_total(site):
    return lambda agg: agg["by_site"].get(site, (0, 0.0, 0.0))[1]


def _site_calls(site):
    return lambda agg: agg["by_site"].get(site, (0, 0.0, 0.0))[0]


def _cli_self(agg):
    return sum(entry[2] for name, entry in agg["by_defined"].items() if name.startswith("cli."))


# name -> (unit, program functions it reads, how to compute it from the span
# aggregate). A metric without a compute function reads the counter of its name.
PER_LAYER = {
    "corpus.load_corpus_s": ("s", ["corpus.load_corpus"], _total("corpus.load_corpus")),
    "corpus.read_records_jsonl_s": ("s", ["corpus.read_records_jsonl"], _total("corpus.read_records_jsonl")),
    "corpus.save_corpus_s": ("s", ["corpus.save_corpus"], _total("corpus.save_corpus")),
    "corpus.records_bytes": ("bytes", ["corpus.read_records_jsonl"], None),
    "learning.estep_s": ("s", ["variational.infer_document"], _site_total("learning.infer_document")),
    "learning.elbo_s": ("s", ["variational.elbo"], _site_total("learning.elbo")),
    "learning.m_step_s": ("s", ["learning.m_step"], _total("learning.m_step")),
    "learning.em_iterations": ("count", ["learning.train"], None),
    "learning.save_model_s": ("s", ["learning.save_model"], _total("learning.save_model")),
    "learning.load_model_s": ("s", ["learning.load_model"], _total("learning.load_model")),
    "learning.model_bytes": ("bytes", ["learning.load_model", "learning.save_model"], None),
    "variational.records_inferred": ("count", ["variational.infer_document"], None),
    "variational.outer_rounds_mean": ("rounds", ["variational.infer_document"], None),
    "variational.outer_rounds_max": ("rounds", ["variational.infer_document"], None),
    "variational.nonconverged_records": ("count", ["variational.infer_document"], None),
    "variational.update_q_nu_s": ("s", ["variational.update_q_nu"], _total("variational.update_q_nu")),
    "variational.round_covariance_s": ("s", ["variational.update_q_nu"], _self("variational.update_q_nu")),
    "variational.responsibilities_s": (
        "s", ["variational.infer_document"], _self("variational.infer_document")
    ),
    "numerics.newton_s": ("s", ["numerics.maximize_concave"], _total("numerics.maximize_concave")),
    "numerics.newton_calls": ("count", ["numerics.maximize_concave"], None),
    "numerics.newton_iterations": ("count", ["numerics.maximize_concave"], None),
    "numerics.line_search_failures": ("count", ["numerics.maximize_concave"], None),
    "summarize.summarize_record_s": ("s", ["summarize.summarize_record"], _self("summarize.summarize_record")),
    "summarize.segments_inferred": ("count", ["variational.infer_document"], _site_calls("summarize.infer_document")),
    "summarize.export_sankey_s": ("s", ["summarize.export_sankey"], _total("summarize.export_sankey")),
    "summarize.save_trajectory_csv_s": (
        "s", ["summarize.save_trajectory_csv"], _total("summarize.save_trajectory_csv")
    ),
    "summarize.coverage_histogram_s": (
        "s", ["summarize.coverage_histogram"], _total("summarize.coverage_histogram")
    ),
    "phenotype.extract_phenotypes_s": (
        "s", ["phenotype.extract_phenotypes"], _total("phenotype.extract_phenotypes")
    ),
    "phenotype.correlation_graph_s": ("s", ["phenotype.correlation_graph"], _total("phenotype.correlation_graph")),
    "synth.sample_corpus_s": ("s", ["synth.sample_corpus"], _total("synth.sample_corpus")),
    "cli.self_s": ("s", ["cli.main"], _cli_self),
}


def per_layer_metrics(summaries, overhead_s: float) -> tuple:
    """Merge the tracer summaries of one run into the per-layer metric table.

    Returns (metrics, absent): ``absent`` names every function a metric reads
    that the program no longer defines; those metrics read 0.
    """
    merged = {"by_site": {}, "by_defined": {}}
    counters: Counter = Counter()
    wrapped: set = set()
    for summary in summaries:
        for table in ("by_site", "by_defined"):
            for name, (calls, total, self_time) in summary[table].items():
                entry = merged[table].setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_time
        for name, value in summary["counters"].items():
            if name in ("variational.outer_rounds_max", "learning.model_bytes"):
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
        wrapped.update(summary["wrapped"])
    inferred = counters["variational.records_inferred"]
    counters["variational.outer_rounds_mean"] = (
        counters["variational.outer_rounds_total"] / inferred if inferred else 0.0
    )

    metrics = {}
    absent = set()
    for name, (unit, reads, compute) in PER_LAYER.items():
        missing = [fn for fn in reads if fn not in wrapped]
        if len(missing) == len(reads):
            absent.update(missing)
        value = compute(merged) if compute is not None else counters[name]
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    metrics["trace.absent_functions"] = {"value": len(absent), "unit": "count"}
    return metrics, sorted(absent)

"""Command-line surface: train, phenotypes, summarize, eval, coverage.

Exit codes: 0 success, 1 bad arguments (a size too large to allocate among
them), 2 I/O or parse failure (an unreadable file, a ``CorpusError`` or a
``ModelFormatError``), 3 convergence or threshold not met, 4 vocabulary
incompatibility (a ``FingerprintError``); :func:`main` maps each error to its
code in one place. Diagnostics go to stderr; data goes to files. A run that
exits 0 or 3 writes a ``manifest.json`` next to its outputs echoing the
command, arguments, seed, and convergence flags (for train, eval, coverage and
summarize also ``nonconverged_records``, the records or segments whose
inference did not converge);
rerunning with the same inputs reproduces the primary outputs byte for byte
(the manifest's wall time is the only timestamp anywhere).

All randomness flows through --seed. The E-step thread count comes from
--threads, the PHENOTOPICS_THREADS environment variable, or is 1, in that
order; :func:`main` checks it once for every command, so a count below 1 exits
1 wherever it is given. It never changes results, only wall time.
``--config file.json`` supplies defaults for any flag of the invoked
subcommand; explicit flags win. Each value must have the JSON type its flag
takes (an integer, a number or a string): a wrong type exits 1, a file that
does not parse exits 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import urllib.parse

from . import __version__
from .corpus import CorpusError, load_corpus, read_records_jsonl
from .learning import (
    FingerprintError,
    ModelFormatError,
    TrainConfig,
    attach_posteriors,
    load_model,
    save_model,
    train,
)
from .phenotype import (
    correlation_graph,
    extract_phenotypes,
    save_graph_csv,
    save_graph_json,
    save_phenotype_report,
)
from .summarize import (
    bucket_label,
    coverage_histogram,
    export_sankey,
    save_trajectory_csv,
    summarize_record,
)
from .synth import (
    ScenarioFormatError,
    get_preset,
    load_scenario,
    recovery_report,
    sample_scenario,
)

EXIT_OK = 0
EXIT_ARGS = 1
EXIT_IO = 2
EXIT_THRESHOLD = 3
EXIT_INCOMPATIBLE = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _require(args, *names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise _CliError(EXIT_ARGS, f"missing required arguments: {', '.join(missing)}")


def _default_threads(value) -> int:
    source = "--threads"
    if value is None:
        value = os.environ.get("PHENOTOPICS_THREADS")
        if not value:
            return 1
        source = "PHENOTOPICS_THREADS"
    try:
        threads = int(value)
    except (TypeError, ValueError):
        raise _CliError(EXIT_ARGS, f"{source} must be an integer, got {value!r}")
    if threads < 1:
        raise _CliError(EXIT_ARGS, f"{source} must be >= 1, got {threads}")
    return threads


def _write_manifest(args, outputs, started, extra):
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "artifact_version": __version__,
        "command": args.command,
        "args": echo,
        "seed": echo.get("seed"),
        "outputs": outputs,
        "wall_time_s": time.monotonic() - started,
    }
    manifest.update(extra)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _nonconverged_records(model) -> int:
    return sum(not post.converged for post in model.doc_posteriors)


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _train_config(args, k) -> TrainConfig:
    """``train``'s and ``eval``'s training settings; a value TrainConfig rejects exits 1."""
    try:
        return TrainConfig(K=k, seed=args.seed, max_em_iters=args.max_em_iters, em_tol=args.em_tol)
    except ValueError as exc:
        raise _CliError(EXIT_ARGS, str(exc))


def cmd_train(args, threads) -> tuple:
    _require(args, "corpus", "k", "seed")
    corpus = load_corpus(args.corpus)
    cfg = _train_config(args, args.k)
    _log(f"training K={cfg.K} on {corpus.num_records} records ({threads} threads)")
    model = train(corpus, cfg, threads=threads)

    out = _ensure_out(args.out)
    model_path = os.path.join(out, "model.json")
    history_path = os.path.join(out, "history.csv")
    save_model(model, model_path)
    with open(history_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective"])
        for i, obj in enumerate(model.history):
            writer.writerow([i, repr(obj)])
    extra = {
        "converged": model.converged,
        "em_iterations": len(model.history),
        "nonconverged_records": _nonconverged_records(model),
    }
    if model.converged:
        _log(f"converged after {len(model.history)} EM iterations")
        code = EXIT_OK
    else:
        _log("training hit max_em_iters without meeting em_tol (model still written)")
        code = EXIT_THRESHOLD
    return code, {"model": model_path, "history": history_path}, extra


def cmd_phenotypes(args, threads) -> tuple:
    _require(args, "model", "label_type")
    if not 0.0 <= args.corr_threshold <= 1.0:
        raise _CliError(EXIT_ARGS, "--corr-threshold must lie in [0, 1]")
    if args.top_n < 1:
        raise _CliError(EXIT_ARGS, "--top-n must be >= 1")
    model = load_model(args.model)
    try:
        definitions = extract_phenotypes(model, top_n=args.top_n, label_type=args.label_type)
    except ValueError as exc:
        raise _CliError(EXIT_ARGS, str(exc))
    graph = correlation_graph(model, threshold=args.corr_threshold)

    out = _ensure_out(args.out)
    report_path = os.path.join(out, "phenotypes.json")
    graph_json_path = os.path.join(out, "relatedness.json")
    graph_csv_path = os.path.join(out, "relatedness.csv")
    save_phenotype_report(definitions, report_path)
    save_graph_json(graph, graph_json_path)
    save_graph_csv(graph, graph_csv_path)
    _log(f"{len(definitions)} phenotypes, {len(graph.edges)} relatedness edges")
    outputs = {"report": report_path, "graph_json": graph_json_path, "graph_csv": graph_csv_path}
    return EXIT_OK, outputs, {"num_edges": len(graph.edges)}


def cmd_summarize(args, threads) -> tuple:
    _require(args, "model", "record_file")
    if args.top_n < 1:
        raise _CliError(EXIT_ARGS, "--top-n must be >= 1")
    model = load_model(args.model)
    records = read_records_jsonl(args.record_file, model.vocabularies).records

    by_record: dict = {}
    for rec in records:
        by_record.setdefault(rec.record_id, []).append(rec)

    out = _ensure_out(args.out)
    outputs = {}
    nonconverged = 0
    for record_id, segments in by_record.items():
        trajectory = summarize_record(segments, model, top_n=args.top_n)
        nonconverged += trajectory.nonconverged_segments
        # ids may hold any character; the encoding keeps [A-Za-z0-9_.~-] and
        # is injective, so names stay distinct and inside --out
        name = urllib.parse.quote(record_id, safe="")
        csv_path = os.path.join(out, f"trajectory_{name}.csv")
        sankey_path = os.path.join(out, f"sankey_{name}.json")
        save_trajectory_csv(trajectory, csv_path)
        export_sankey(trajectory, sankey_path)
        outputs[record_id] = {"trajectory": csv_path, "sankey": sankey_path}
        _log(
            f"record {record_id}: {len(trajectory.bins)} bins, "
            f"top phenotypes {trajectory.selected}"
        )
    return EXIT_OK, outputs, {"nonconverged_records": nonconverged}


def cmd_eval(args, threads) -> tuple:
    _require(args, "seed")
    if not 0.0 <= args.tv_threshold <= 1.0:
        raise _CliError(EXIT_ARGS, "--tv-threshold must lie in [0, 1]")
    if not 0.0 <= args.corr_threshold <= 1.0:
        raise _CliError(EXIT_ARGS, "--corr-threshold must lie in [0, 1]")
    if args.preset:
        try:
            scenario = get_preset(args.preset)
        except KeyError as exc:
            raise _CliError(EXIT_ARGS, str(exc.args[0]))
    elif args.scenario:
        try:
            scenario = load_scenario(args.scenario)
        except (OSError, ScenarioFormatError) as exc:
            raise _CliError(EXIT_IO, f"cannot load scenario: {exc}")
        except ValueError as exc:
            raise _CliError(EXIT_ARGS, f"invalid scenario: {exc}")
    else:
        raise _CliError(EXIT_ARGS, "provide --preset or --scenario")
    cfg = _train_config(args, scenario.K)
    _log(f"sampling scenario {scenario.name!r} (D={scenario.D}) with seed {args.seed}")
    try:
        corpus, planted = sample_scenario(scenario, seed=args.seed)
    except ValueError as exc:
        raise _CliError(EXIT_ARGS, f"invalid scenario: {exc}")
    _log(f"training K={cfg.K} on {corpus.num_records} sampled records ({threads} threads)")
    model = train(corpus, cfg, threads=threads)
    report = recovery_report(model, planted, corr_threshold=args.corr_threshold)

    out = _ensure_out(args.out)
    report_path = os.path.join(out, "recovery.json")
    payload = {
        "scenario": scenario.name,
        "matching": report.matching,
        "mean_tv": report.mean_tv,
        "per_phenotype_tv": report.per_phenotype_tv.tolist(),
        "correlation_recovery": report.correlation_recovery,
        "tv_threshold": args.tv_threshold,
        "train_converged": model.converged,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    _log(f"mean TV distance after matching: {report.mean_tv:.4f}")
    code = EXIT_OK
    if report.mean_tv > args.tv_threshold:
        _log(f"threshold {args.tv_threshold} not met")
        code = EXIT_THRESHOLD
    extra = {
        "mean_tv": report.mean_tv,
        "converged": model.converged,
        "nonconverged_records": _nonconverged_records(model),
    }
    return code, {"report": report_path}, extra


def cmd_coverage(args, threads) -> tuple:
    _require(args, "model", "corpus")
    if not 0.0 < args.mass <= 1.0:
        raise _CliError(EXIT_ARGS, "--mass must lie in (0, 1]")
    model = load_model(args.model)
    corpus = load_corpus(args.corpus)
    model = attach_posteriors(model, corpus, threads=threads)
    fractions = coverage_histogram(model, mass=args.mass)

    out = _ensure_out(args.out)
    hist_path = os.path.join(out, "coverage.csv")
    with open(hist_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket", "fraction"])
        for bucket, fraction in fractions.items():
            writer.writerow([bucket_label(bucket), repr(fraction)])
    for bucket, fraction in fractions.items():
        _log(f"records explained by {bucket_label(bucket)} phenotypes: {fraction:.1%}")
    return EXIT_OK, {"histogram": hist_path}, {"nonconverged_records": _nonconverged_records(model)}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phenotopics",
        description="Correlated phenotype topic model: train, analyze, summarize.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of flag defaults")
    common.add_argument("--threads", type=int, default=None, help="E-step thread cap")
    common.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("train", parents=[common], help="fit a model on a corpus")
    p.add_argument("--corpus", help="corpus directory")
    p.add_argument("--k", type=int, help="number of phenotypes")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-em-iters", type=int, default=TrainConfig.max_em_iters)
    p.add_argument("--em-tol", type=float, default=TrainConfig.em_tol)
    p.set_defaults(func=cmd_train)
    commands["train"] = p

    p = sub.add_parser("phenotypes", parents=[common],
                       help="export definitions and the relatedness graph")
    p.add_argument("--model")
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--label-type")
    p.add_argument("--corr-threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_phenotypes)
    commands["phenotypes"] = p

    p = sub.add_parser("summarize", parents=[common],
                       help="salience trajectories for segmented records")
    p.add_argument("--model")
    p.add_argument("--record-file", help="segmented records.jsonl")
    p.add_argument("--top-n", type=int, default=5)
    p.set_defaults(func=cmd_summarize)
    commands["summarize"] = p

    p = sub.add_parser("eval", parents=[common], help="synthetic recovery evaluation")
    p.add_argument("--preset", help="named scenario preset")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-em-iters", type=int, default=200)
    p.add_argument("--em-tol", type=float, default=TrainConfig.em_tol)
    p.add_argument("--tv-threshold", type=float, default=0.1)
    p.add_argument("--corr-threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)
    commands["eval"] = p

    p = sub.add_parser("coverage", parents=[common],
                       help="how many phenotypes explain each record")
    p.add_argument("--model")
    p.add_argument("--corpus", help="corpus directory to infer posteriors for")
    p.add_argument("--mass", type=float, default=0.9)
    p.set_defaults(func=cmd_coverage)
    commands["coverage"] = p

    return parser, commands


def _apply_config_file(commands, argv):
    """Use a --config JSON object as flag defaults for the invoked subcommand."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("command", nargs="?")
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config or known.command not in commands:
        return
    try:
        with open(known.config, encoding="utf-8") as fh:
            defaults = json.load(fh)
    # ValueError: bad JSON or UTF-8, or an over-long int; RecursionError: nested too deep
    except (OSError, RecursionError, ValueError) as exc:
        raise _CliError(EXIT_IO, f"cannot load config file: {exc}")
    if not isinstance(defaults, dict):
        raise _CliError(EXIT_IO, "config file must hold a JSON object of flag defaults")
    target = commands[known.command]
    # every key names a flag that takes a value; --help takes none
    actions = {a.dest: a for a in target._actions if a.dest != "help"}  # noqa: SLF001
    unknown = sorted(set(defaults) - set(actions))
    if unknown:
        raise _CliError(
            EXIT_ARGS, f"config keys not recognized for {known.command!r}: {unknown}"
        )
    for key, value in defaults.items():
        # the JSON type the flag takes on the command line, exactly: bool
        # subclasses int but is not a number here
        if type(value) not in {int: (int,), float: (int, float)}.get(actions[key].type, (str,)):
            raise _CliError(EXIT_ARGS, f"config value for {key!r} has the wrong type: {value!r}")
    target.set_defaults(**defaults)


def main(argv=None) -> int:
    """Parse ``argv``, run its subcommand and return the exit code.

    The thread count is resolved here, once, for every command. Each
    ``cmd_*`` takes the parsed args and that count and returns
    ``(exit_code, outputs, extra)`` with code 0 or 3, and only then is the
    manifest written; every other code comes from an exception mapped below.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        _apply_config_file(commands, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_ARGS if exc.code not in (0, None) else 0
        threads = _default_threads(args.threads)
        started = time.monotonic()
        code, outputs, extra = args.func(args, threads)
        _write_manifest(args, outputs, started, extra)
        return code
    except _CliError as exc:
        _log(f"error: {exc}")
        return exc.code
    except FingerprintError as exc:
        _log(f"error: {exc}")
        return EXIT_INCOMPATIBLE
    except (CorpusError, ModelFormatError) as exc:
        _log(f"error: {exc}")
        return EXIT_IO
    except OSError as exc:
        _log(f"I/O error: {exc}")
        return EXIT_IO
    except MemoryError as exc:  # a size too large to allocate
        _log(f"error: out of memory: {exc}")
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload cohort-k50 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The set-up samples the workload's
inputs from ``--seed`` and writes them under ``bench/out/<workload>/``;
``setup_s`` is this process's CPU time from its start to the end of that. A
separate process then runs whole rounds of the workload for at most
``--seconds`` (at least one round) and checks every output. The last line on
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. End-to-end times are CPU times scaled to the reference
speed by ``speed.SpeedMeter``.

The program runs single-threaded: ``--threads 1`` on every command and BLAS
pinned to one thread in this process and the worker. ``--size tiny`` selects
the self-tests' small inputs.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from speed import SpeedMeter  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# A run has to end within 180 s; the worker is stopped at this mark so that
# the benchmark still exits on its own and says why. A traced run, the longest,
# took 54-66 s on the reference machine.
DEADLINE_S = 170.0

EXIT_NO_PROGRAM = 2
EXIT_WORKER = 3


def _fail(code: int, message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def end_to_end(setup_s: float, result: dict) -> dict:
    # The mean, the operations' total over their count, is what training
    # time and cohort throughput are, and a summary's mean latency.
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        "op_mean_ms": {"value": 1000.0 * statistics.fmean(result["op_scaled_s"]), "unit": "ms"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phenotopics", "__init__.py")):
        return _fail(EXIT_NO_PROGRAM, f"no program sources under {SRC}")
    # Started before the program is imported, so that the set-up's speed is
    # sampled over nearly all of it.
    meter = SpeedMeter()
    meter.start()
    try:
        return _run(args, meter)
    finally:
        meter.stop()


def _run(args, meter) -> int:
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(1, f"unknown workload {args.workload!r}; have {workloads.WORKLOADS}")
    if args.seed < 0:
        return _fail(1, "--seed must be non-negative")

    out = os.path.join(BENCH, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    inputs = os.path.join(out, "inputs")
    size = (workloads.SIZES if args.size == "full" else workloads.TINY)[args.workload]

    setup_tracer = None
    if args.trace:
        meter.stop()  # per-layer times are plain CPU times
        from tracing import Tracer

        setup_tracer = Tracer()
        setup_tracer.install()
    try:
        workloads.setup(args.workload, args.seed, inputs, size)
        setup_end = time.process_time()  # CPU seconds since this process started
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
    meter.stop()  # no probes while the worker runs
    setup_s = meter.scaled(0.0, setup_end)

    job_path = os.path.join(out, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": args.workload, "inputs": inputs, "out": out,
             "seconds": args.seconds, "trace": args.trace},
            fh,
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    log_path = os.path.join(out, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        worker = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py"), job_path],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        try:
            code = worker.wait(timeout=max(10.0, DEADLINE_S - (time.perf_counter() - STARTED)))
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            return _fail(EXIT_WORKER, f"worker exceeded the deadline; see {log_path}")
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        return _fail(EXIT_WORKER, f"worker exited with {code}")
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    for message in result["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        from tracing import per_layer_metrics

        metrics, absent = per_layer_metrics(
            [setup_tracer.summary(), result["trace"]], result["overhead_s"]
        )
        if absent:
            print(f"trace: absent from the program: {', '.join(absent)}", file=sys.stderr)
        with open(os.path.join(out, "per_layer.json"), "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, "absent": absent, "worker": result["trace"]}, fh, indent=1)
    else:
        metrics = end_to_end(setup_s, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

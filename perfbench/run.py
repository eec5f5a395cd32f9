"""montspec benchmark: one workload per invocation.

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its
`src/` tree, nothing is installed.  The workloads are defined in
workloads.py; why each was chosen is in BENCHMARK.json and is echoed in
the output.  BLAS runs single-threaded.

--trace 0 times whole passes of the workload, max(1, round(seconds /
pass length)) of them, after one untimed warm-up solve (in-process
workloads only: cli-session stays cold, as every user invocation is),
and reports the end-to-end metrics:

  setup_s      median wall time of a fresh `python -c "import montspec"`,
               sampled before and after the passes
  wall_s       median time of one pass (the sum of its operations' latencies)
  op_p50_s     median latency of one operation, pooled over passes
  ok_frac      share of operations that neither failed nor gave a wrong result
  peak_rss_mb  peak resident memory of the workload process (cli-session:
               of its largest child process)

--trace 1 runs one untimed-tracing pass and one traced pass and reports
the per-layer metrics of spans.LAYER_METRICS from the traced pass, with
the tracing overhead as the difference of the two pass times.

Every operation's output is checked against an independent reference
after timing.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; the line before it holds the
seed, machine, inputs, per-operation latencies and failure messages.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Fresh-process imports vary by +-15 % from one to the next, so set-up is
# sampled before and after the passes and the median is reported.
SETUP_SAMPLES = (3, 3)


def _machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def measure_setup(repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import montspec"], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def run_op(op, tracer):
    """Time one operation, then check its output outside the timed region.

    Returns (latency, failure reason or None, whether the output was
    wrong, trace summary of a CLI child or None).  Nothing of the output
    outlives the call, so earlier results do not inflate the peak memory
    of later operations.
    """
    call = op.call if tracer is None else tracer.wrap("op " + op.name, op.call)
    start = time.perf_counter()
    try:
        out = call(tracer is not None)
    except Exception as exc:  # a failed operation is a result, not a crash
        latency = time.perf_counter() - start
        return latency, f"{op.name}: {type(exc).__name__}: {exc}", False, getattr(exc, "summary", None)
    latency = time.perf_counter() - start
    try:
        ok, reason = op.check(out), "output disagrees with the reference"
    except (ValueError, IndexError, KeyError) as exc:
        ok, reason = False, f"unreadable output: {exc}"
    if ok:
        return latency, None, False, getattr(out, "summary", None)
    return latency, f"{op.name}: {reason}", True, getattr(out, "summary", None)


def run_passes(work, refs, passes, rng, tracer=None):
    """Run `passes` passes of the workload, each built from the seeded rng.

    A pass's time is the sum of its operations' latencies.  Returns
    (pass times, per-operation records (name, latency, failure reason,
    wrong), inputs drawn per pass, CLI trace summaries).
    """
    walls, records, inputs, summaries = [], [], [], []
    for _ in range(passes):
        ops, drawn = work.build(rng, refs)
        rng.shuffle(ops)
        inputs.append(drawn)
        busy = 0.0
        for op in ops:
            latency, reason, wrong, summary = run_op(op, tracer)
            busy += latency
            records.append((op.name, latency, reason, wrong))
            if summary is not None:
                summaries.append(summary)
        walls.append(busy)
    return walls, records, inputs, summaries


def _peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "montspec", "__init__.py")):
        print(f"perfbench: no montspec sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)

    import oracle
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}[work.name]
    rng = random.Random(args.seed)
    refs = oracle.References()

    setup_times = [] if args.trace else measure_setup(SETUP_SAMPLES[0])
    if work.in_process:
        work.warm_up()

    if args.trace:
        walls, records, inputs, _ = run_passes(work, refs, 1, rng)
        tracer = spans.Tracer()
        if work.in_process:
            tracer.install()
        try:
            traced_walls, traced_records, traced_inputs, child_summaries = run_passes(
                work, refs, 1, rng, tracer)
        finally:
            tracer.uninstall()
        summary = spans.merge_summaries([tracer.summary()] + child_summaries)
        metrics = spans.layer_metrics(summary, refs, traced_walls[0] - walls[0])
        walls, records, inputs = walls + traced_walls, records + traced_records, inputs + traced_inputs
        passes = 2
    else:
        passes = max(1, round(args.seconds / work.pass_s))
        walls, records, inputs, _ = run_passes(work, refs, passes, rng)
        peak_rss_mb = _peak_rss_mb(work.in_process)
        setup_times += measure_setup(SETUP_SAMPLES[1])

    latencies = [latency for _, latency, _, _ in records]
    failures = [reason for _, _, reason, _ in records if reason is not None]
    wrong = sum(1 for *_, is_wrong in records if is_wrong)
    failed, attempted = len(failures), len(records)
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    per_op = {}
    for name, latency, reason, _ in records:
        entry = per_op.setdefault(name, {"latencies_s": [], "failed": 0})
        entry["latencies_s"].append(latency)
        entry["failed"] += reason is not None
    details = {
        "workload": work.name, "why": why, "seed": args.seed, "trace": args.trace,
        "passes": passes, "pass_walls_s": walls,  # with --trace 1: untraced, traced "op_samples": len(latencies),
        "setup_samples_s": setup_times,
        "fail_frac": failed / attempted, "inputs": inputs, "machine": _machine(),
        "failures": failures, "wrong_outputs": wrong, "per_op": per_op,
    }
    if args.trace:
        details["layer_moves"] = {name: moves for name, _, _, moves in spans.LAYER_METRICS}

    print(f"workload {work.name}, seed {args.seed}: {passes} passes, "
          f"{len(latencies)} operations, {failed} failed, {wrong} wrong")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("details " + json.dumps(details))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

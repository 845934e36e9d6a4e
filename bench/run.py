"""symtree benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload learn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; symtree is imported from its ``src/``.
With ``--trace 0`` passes over the workload repeat while another one fits in
``--seconds`` (at least one runs) and the end-to-end metrics summarize them,
every time in reference seconds (see ``refclock.py``).
With ``--trace 1`` untraced and traced passes alternate, the per-layer metrics
come from the spans of the first traced pass and ``trace.overhead_frac``
compares the two kinds of pass. The last line of standard output is the
result as one JSON object; the line before it holds the provenance. Both, and
the spans of a traced run, are also written under ``bench/out/``.
"""

import time

T0 = time.perf_counter()   # set-up time counts from here

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
BLAS_THREADS = "1"
SETUP_PROBES = 2          # extra fresh-process set-ups, so setup_s is a median of 3
PROBE_TIMEOUT_S = 120

# Pin native thread pools before numpy loads: each workload is one caller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from refclock import CAL_REF_S, RefClock, WallClock  # noqa: E402  (after the pin)
from tracer import NullTracer, Tracer, layer_metrics  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("learn", "label", "control"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time (used internally)")
    return p.parse_args(argv)


def import_symtree():
    """Import symtree from this checkout's src/ and never from elsewhere."""
    src = ROOT / "src"
    if not (src / "symtree" / "__init__.py").is_file():
        sys.exit(f"error: no symtree sources under {src}")
    sys.path.insert(0, str(src))
    import symtree
    if Path(symtree.__file__).resolve().parent != (src / "symtree").resolve():
        sys.exit(f"error: imported symtree from {symtree.__file__}, not {src}")
    return symtree


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def probe_setup(args) -> float:
    """Set-up time of one fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def another_fits(start, n_done, seconds) -> bool:
    """True if one more pass of the mean length so far ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / n_done <= seconds


def measure(wl, seconds):
    """Untraced passes while another fits in `seconds` (at least one)."""
    passes, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not passes or another_fits(start, len(passes), seconds):
        s, lat, out = wl.run(NullTracer())
        a, f = wl.check(out)
        passes.append((s, lat))
        attempted, failed = attempted + a, failed + f
    return passes, out, attempted, failed


def measure_traced(wl, seconds):
    """Pairs of untraced and traced passes while another pair fits in
    `seconds` (at least one); per-layer numbers from the first traced pass,
    tail latencies from the untraced ones."""
    walls = {False: [], True: []}
    untraced_passes, first, attempted, failed = [], None, 0, 0
    start = time.perf_counter()
    while first is None or another_fits(start, len(walls[True]), seconds):
        # Alternate which kind of pass goes first, so drift favours neither.
        for traced in ((False, True) if len(walls[True]) % 2 == 0 else (True, False)):
            tracer = Tracer(wl.name) if traced else NullTracer()
            with contextlib.ExitStack() as stack:
                if traced:
                    tracer.install(stack)
                t = time.perf_counter()
                s, lat, out = wl.run(tracer)
                walls[traced].append(time.perf_counter() - t)
            if not traced:
                untraced_passes.append((s, lat))
            a, f = wl.check(out)
            attempted, failed = attempted + a, failed + f
            if traced and first is None:
                tracer.check_hits()
                first = (tracer, out)
    tracer, out = first
    metrics = layer_metrics(tracer, wl.facts(out))
    metrics.update(wl.tails(untraced_passes))
    untraced = statistics.median(walls[False])
    metrics["trace.overhead_frac"] = (statistics.median(walls[True]) - untraced) / untraced
    return metrics, tracer, out, attempted, failed, walls


def main(argv=None) -> int:
    args = parse_args(argv)
    # Untraced runs report reference seconds (see refclock.py); traced runs
    # report wall time and keep the calibration ticks out of their spans.
    clock = WallClock() if args.trace else RefClock()
    symtree = import_symtree()
    import numpy
    import scipy
    from workloads import Pipeline
    wl = Pipeline(args.workload, args.seed)
    setup_end = time.perf_counter()
    if args.setup_probe:
        clock.stop()
        print(json.dumps({"setup_s": float(clock.ref_seconds(T0, setup_end))}))
        return 0

    e2e_units, layer_units = declared_metrics()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"run_id": run_id}
    if args.trace:
        metrics, tracer, out, attempted, failed, walls = measure_traced(wl, args.seconds)
        units = layer_units
        record["pass_walls_s"] = {"untraced": walls[False], "traced": walls[True]}
    else:
        passes, out, attempted, failed = measure(wl, args.seconds)
        clock.stop()
        metrics = wl.summarize(passes, clock)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [float(clock.ref_seconds(T0, setup_end))]
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = statistics.median(setups)
        units = e2e_units
        record["wall"] = {**wl.summarize(passes, WallClock()),
                          "setup_s": setup_end - T0, "passes": len(passes)}
        record["calibration"] = {"ticks": clock.speed_samples(),
                                 "median_chunk_s": clock.median_chunk_s(),
                                 "reference_chunk_s": CAL_REF_S}
        record["setup_samples_s"] = setups
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "declared in BENCHMARK.json for this mode")

    record["provenance"] = {
        "commit": git_commit(), "symtree": symtree.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "sizes": wl.sizes(),
        "dataset_sha256": wl.data_sha256(out),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)}}
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.write(OUT / f"spans-{run_id}.jsonl.gz", run_id)
    (OUT / f"result-{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

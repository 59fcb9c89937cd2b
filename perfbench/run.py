"""chiralkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run,
whose spans are also written to perfbench/out/. Workloads are defined in
workloads.py and described in README.md.

End-to-end times are in reference seconds: each wall time divided by the
speed factor that reference.py measures next to it (see there and README.md).
The line before the result gives the wall-time figures as well.
"""

import os

# BLAS and OpenMP run one thread, set before numpy is first imported; the
# scan's worker count stays at its default of one.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("CHIRALKIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ensemble_d4", "spectral_d256", "orbit_magic", "stabilizer_tables")
# Fresh interpreters timed from spawn to the first item; setup_s is their median.
SETUP_REPEATS = 5
# Share of a timed run spent on the reference kernel, and its seconds before
# and after each set-up child.
REFERENCE_SHARE = 0.08
SETUP_REFERENCE_S = 0.1
WARM_UP_S = 0.2  # reference units run before the first timed item
MAX_REPORTED_PROBLEMS = 10


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up, print 'ready' and exit")
    return ap.parse_args(argv)


def _set_up(workload: str, seed: int):
    warnings.filterwarnings("ignore", message=".*restarts hit max_iters.*", category=RuntimeWarning)
    import workloads

    wl = workloads.WORKLOADS[workload]
    return wl, wl.setup(seed)


def _timed_setup(workload: str, seed: int, ref) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it is ready for its
    first item (imports, input generation and cache warm-up), as wall time
    and as reference seconds, with the reference kernel run just before and
    just after the child."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    ref.reset()
    ref.run_for(SETUP_REFERENCE_S)
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child exited with code {code} after printing {line!r}")
    ref.run_for(SETUP_REFERENCE_S)
    return ready - start, (ready - start) / ref.factor()


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "chiralkit" / "__init__.py").is_file():
        print(f"perfbench: no chiralkit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        _set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    # the traced run is not compared across versions, so it runs no reference
    ref = None
    setup_times: list[tuple[float, float]] = []
    if not args.trace:
        from reference import Reference

        ref = Reference(REFERENCE_SHARE)
        setup_times = [_timed_setup(args.workload, args.seed, ref) for _ in range(SETUP_REPEATS)]

    tracer = None
    if args.trace:
        import chiralkit  # noqa: F401  (every layer module is loaded before wrapping)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.item = -1
    wl, pool = _set_up(args.workload, args.seed)
    if tracer:
        tracer.item = None

    item_times: list[float] = []
    # each item's time is divided by the mean of the factors of the reference
    # bursts just before and just after it
    item_factors: list[float] = []
    pending = 0  # items that wait for the burst after them
    attempted = failed = rounds = 0
    problems: list[str] = []
    if ref:
        ref.reset()
        before = ref.owe(WARM_UP_S / ref.share)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for item in pool:
            ops = wl.ops(item)
            outs = {}
            if tracer:
                tracer.item = len(item_times)
            t0 = time.perf_counter()
            for name, fn in ops:
                try:
                    outs[name] = fn()
                except Exception as exc:  # counted as a failed operation; the run goes on
                    failed += 1
                    if failed <= MAX_REPORTED_PROBLEMS:
                        print(f"{args.workload} item {item.index} {name} failed:", file=sys.stderr)
                        traceback.print_exception(exc, file=sys.stderr)
            t1 = time.perf_counter()
            if tracer:
                tracer.item = None
            attempted += len(ops)
            item_times.append(t1 - t0)
            if ref:
                pending += 1
                after = ref.owe(t1 - t0)
                if after is not None:
                    item_factors += [(before + after) / 2] * pending
                    before, pending = after, 0
            problems += [f"item {item.index} {p}" for p in wl.check(item, outs)]
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    if ref and pending:
        after = ref.sample()
        item_factors += [(before + after) / 2] * pending

    for p in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"{args.workload} check failed: {p}", file=sys.stderr)
    n = len(item_times)
    wall_items_per_s = n / sum(item_times)
    wall_p50_ms = 1e3 * statistics.median(item_times)
    ref_times = [t / f for t, f in zip(item_times, item_factors)]
    info = (
        f"# {args.workload} seed={args.seed} trace={args.trace} items={n} rounds={rounds} "
        f"wall_items_per_s={wall_items_per_s:.6g} wall_item_p50_ms={wall_p50_ms:.6g}"
    )
    if ref:
        wall_setup_s = statistics.median(wall for wall, _ in setup_times)
        parts = " ".join(f"part_{k}={v:.4f}" for k, v in ref.part_factors().items())
        info += (
            f" wall_setup_s={wall_setup_s:.6g} reference_factor={ref.factor():.5f} {parts}"
            f" reference_units={ref.units}"
        )
    print(
        f"{info} blas_threads={BLAS_THREADS} numpy={np.__version__} blas={_blas_name()!r} nproc={os.cpu_count()}"
    )
    if tracer:
        metrics = tracer.layer_metrics(n)
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz", metrics)
    else:
        metrics = {
            "items_per_s": {"value": n / sum(ref_times), "unit": "1/s"},
            "item_p50_ms": {"value": 1e3 * statistics.median(ref_times), "unit": "ms"},
            "setup_s": {"value": statistics.median(norm for _, norm in setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

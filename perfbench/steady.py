"""Steadiness and tracing checks of the benchmark.

    python3 perfbench/steady.py --seeds 1-10 --label set1
    python3 perfbench/steady.py --traced --seeds 1 --label traced

The first form runs every workload once per seed with tracing off, then
prints, for every end-to-end metric, the median, the quartiles and the
spread (quartile distance over median) next to the bound in BENCHMARK.json,
the same for the wall-time figures the runs print before their result, and
the failed share of operations. The second form alternates three untraced
and three traced runs per workload and seed, checks that every count
repeats exactly between the traced runs, and prints the tracing overhead
(both sides in wall time). Results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _info(line: str) -> dict[str, float]:
    """The numeric key=value fields of a run's info line."""
    out = {}
    for field in line.split():
        key, _, value = field.partition("=")
        try:
            out[key] = float(value)
        except ValueError:
            pass
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), _info(lines[-2])


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def steadiness(bench: dict, workloads: list[str], seeds: list[int], label: str) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    wall = ("wall_items_per_s", "wall_item_p50_ms", "wall_setup_s", "reference_factor")
    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            res, info = _run(w, seed, bench["run_seconds"], 0)
            res["wall"] = {k: info[k] for k in wall}
            res["info"] = info
            runs[w].append(res)
            print(
                f"{w} seed {seed}: "
                + ", ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                + "; "
                + ", ".join(f"{k}={v:.5g}" for k, v in res["wall"].items()),
                flush=True,
            )
    report = {}
    print(f"\n| workload | metric | median | q1 | q3 | spread | bound | failed share |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        report[w] = {"runs": runs[w], "failed_shares": sorted(shares), "metrics": {}}
        for name in bounds:
            s = _summary([r["metrics"][name]["value"] for r in runs[w]])
            report[w]["metrics"][name] = s
            print(
                f"| {w} | {name} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                f"{s['spread']:.3f} | {bounds[name]} | {sorted(shares)} |"
            )
        for name in wall:
            s = _summary([r["wall"][name] for r in runs[w]])
            report[w]["metrics"][name] = s
            print(f"| {w} | {name} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f} | - | |")
        if not all(r["correct"] for r in runs[w]):
            print(f"{w}: a run reported correct = false")
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{label}.json").write_text(json.dumps(report, indent=1))


def traced(bench: dict, workloads: list[str], seeds: list[int], label: str, pairs: int = 3) -> None:
    """Alternate untraced and traced runs of each workload and seed: every
    count must repeat exactly between the traced runs, and the overhead is
    the median over pairs of untraced items_per_s over traced items_per_s."""
    print("| workload | seed | counts repeat | untraced items_per_s | traced items_per_s | overhead |")
    print("|---|---|---|---|---|---|")
    report = {}
    for w in workloads:
        for seed in seeds:
            plain, traced_runs = [], []
            for k in range(pairs):
                for trace in ((0, 1) if k % 2 == 0 else (1, 0)):
                    res, info = _run(w, seed, bench["run_seconds"], trace)
                    if trace:
                        traced_runs.append((res, info["wall_items_per_s"]))
                    else:
                        plain.append(info["wall_items_per_s"])
            counts = {
                k: [r["metrics"][k]["value"] for r, _ in traced_runs]
                for k, v in traced_runs[0][0]["metrics"].items()
                if v["unit"].startswith("count")
            }
            same = all(len(set(v)) == 1 for v in counts.values())
            ratios = [p / t for p, (_, t) in zip(plain, traced_runs)]
            overhead = statistics.median(ratios) - 1.0
            report[f"{w}/{seed}"] = {
                "counts_repeat": same,
                "untraced_items_per_s": plain,
                "traced_items_per_s": [t for _, t in traced_runs],
                "overhead": overhead,
                "layer_metrics": traced_runs[0][0]["metrics"],
            }
            print(
                f"| {w} | {seed} | {same} | {statistics.median(plain):.4g} | "
                f"{statistics.median(t for _, t in traced_runs):.4g} | {overhead:.1%} |",
                flush=True,
            )
            if not same:
                print({k: v for k, v in counts.items() if len(set(v)) > 1})
    OUT.mkdir(exist_ok=True)
    (OUT / f"traced-{label}.json").write_text(json.dumps(report, indent=1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label", default="set1")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    (traced if args.traced else steadiness)(bench, workloads, _seeds(args.seeds), args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())

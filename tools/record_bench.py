"""Record a BENCH_<n>.json: the benchmark run on a parent and a change checkout.

    python3 tools/record_bench.py --parent DIR --change DIR --out BENCH_7.json \
        --what "..." [--pairs ensemble_d4=10 spectral_d256=3 ...]

DIR is the root of a full checkout of each side (for example made with
`git archive`). For each workload the recorder runs `perfbench/run.py` in
both checkouts for `BENCHMARK.json`'s run_seconds, pair k with seed k, the
side that runs first alternating from pair to pair. Pair counts must be even,
so each side runs first in half the pairs. Per metric it writes
both sides' runs, medians and quartiles, the ratio of the medians and the
number of pairs the change won, counting a win in the direction
`BENCHMARK.json` names. A metric shows a gain when the change won at least
nine in ten of at least ten pairs and its median beats the parent's by more
than the parent's interquartile range; the `claim` block lists every such
metric. Each workload also gets three traced runs per side (seeds 1-3), the
side that runs first alternating from seed to seed as in the paired runs, and
each per-layer metric is recorded as their median, so one noisy traced run
does not read as a layer that moved. The recorder then runs the tier-1 test suite once per
side and every selftest criterion once per side in a fresh interpreter,
keeps each side's stdout of `chiralkit measure`, `qfi` (for party A and for
party B) and `logdist` on the bundled states, of `chiralkit bounds --n 10` (which runs the orbit
optimizer), of `chiralkit scan --n 200 --seed 3` (the scan's summary,
which reads every sample) and of `chiralkit stabilizer` on a pure and a
mixed tableau of 3 qubits and of 10, and on the 10-qubit X product, whose
run is mostly library time (each written once, so both sides print the
same path),
with one same/different flag per command and state or tableau, each such
command's wall seconds per side (the median of three runs, the side that
runs first alternating from run to run), and one
flag per selftest criterion saying whether its verdict and detail are the
same, seconds excluded (so the file shows whether the CLI bytes or a
criterion's figures moved), and counts the Python lines of `src/` and of
`tests/` (so a file shows code moved from one to the other).
Runs are sequential, so nothing else competes for the CPUs while one is
timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SEEDS = (1, 2, 3)
CLI_RUNS = 3  # runs per side of each CLI command, for its median wall seconds
# the key each command's stdout is recorded under, and its arguments
CLI_COMMANDS = {"measure": ["measure"], "qfi": ["qfi"], "qfi_party_B": ["qfi", "--party", "B"],
                "logdist": ["logdist"]}
CLI_STATES = ("bell.json", "example1.json")
TABLEAUX = {
    "ghz.tab": "+XXX\n+ZZI\n+IZZ\n",
    "mixed.tab": "+XYZ\n-ZZI\n",
    # 10 qubits, where the state's 2^20 entries show whether its construction moved a byte
    "ghz10.tab": "".join(["+" + "X" * 10 + "\n"] + [f"+{'I' * i}ZZ{'I' * (8 - i)}\n" for i in range(9)]),
    "mixed10.tab": "+YYYYYYYYYY\n-XXIIIIIIII\n+IIZZIIIIII\n-IIIIYYIIII\n+IIIIIIXXZZ\n-ZZIIZZIIII\n",
    # 10 qubits of X parts of rank 10: the state sets every entry and the nullity tabulates
    # every column, so the command's wall time is mostly library time
    "xprod10.tab": "".join(f"+{'I' * i}X{'I' * (9 - i)}\n" for i in range(10)),
}
SELFTEST = """
import json
from chiralkit import selftest
out = {}
for key, _, _ in selftest.CRITERIA:
    r = selftest.run_criterion(key)
    out[key] = {"verdict": "PASS" if r.passed else "FAIL", "seconds": round(r.seconds, 2), "detail": r.detail}
print(json.dumps(out))
"""


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")


def _bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


def _quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _gain(stats: dict, wins: int, pairs: int, sign: float) -> dict:
    """The gain test: the change better in nine of ten pairs or more, over
    ten pairs at least, and its median better than the parent's by more than
    the parent's interquartile range."""
    difference = sign * (stats["change"]["median"] - stats["parent"]["median"])
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    return {
        "median_improvement": difference,
        "parent_interquartile_range": spread,
        "gain_met": pairs >= 10 and 10 * wins >= 9 * pairs and difference > spread,
    }


def _workload(dirs: dict, workload: str, pairs: int, seconds: float, better: dict) -> dict:
    seeds = list(range(1, pairs + 1))
    runs = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            info, result = _bench(dirs[side], workload, seed, seconds, trace=0)
            runs[side].append(result)
            print(f"{workload} pair {k + 1}/{pairs} {side}: {info}", file=sys.stderr, flush=True)
    entry = {"pairs": pairs, "seeds": seeds}
    for side in SIDES:
        entry[f"{side}_operations"] = {
            "attempted": sum(r["attempted"] for r in runs[side]),
            "failed": sum(r["failed"] for r in runs[side]),
            "all_correct": all(r["correct"] for r in runs[side]),
        }
    for metric, direction in better.items():
        values = {side: [r["metrics"][metric]["value"] for r in runs[side]] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        stats = {side: _quartiles(values[side]) for side in SIDES}
        entry[metric] = {
            **stats,
            "change_over_parent_median": stats["change"]["median"] / stats["parent"]["median"],
            "pairs_change_better": wins,
            **_gain(stats, wins, pairs, sign),
        }
    return entry


def _tier1(checkout: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = out.stdout.strip().splitlines()[-1].strip("= ")
    selftest = subprocess.run([sys.executable, "-c", SELFTEST], cwd=checkout, env=_env(checkout),
                              capture_output=True, text=True, check=True)
    return {"summary": summary, "wall_s": wall, "selftest": json.loads(selftest.stdout.strip().splitlines()[-1])}


def _cli(checkout: Path, args: list[str]) -> str:
    return subprocess.run([sys.executable, "-m", "chiralkit", *args], cwd=checkout, env=_env(checkout),
                          capture_output=True, text=True, check=True).stdout


def _cli_sides(dirs: dict, args: list[str], walls: dict, key: str) -> dict:
    """Each side's stdout of one command, run CLI_RUNS times per side with the
    side that runs first alternating; walls[key] gets each side's wall
    seconds (median and runs) and the ratio of the medians."""
    stdout, runs = {}, {side: [] for side in SIDES}
    for k in range(CLI_RUNS):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            start = time.perf_counter()
            stdout[side] = _cli(dirs[side], args)
            runs[side].append(time.perf_counter() - start)
    walls[key] = {side: {"median": statistics.median(runs[side]), "runs": runs[side]} for side in SIDES}
    walls[key]["change_over_parent_median"] = walls[key]["change"]["median"] / walls[key]["parent"]["median"]
    return stdout


def _lines(checkout: Path, tree: str) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((checkout / tree).rglob("*.py")))


def _machine(info_line: str) -> dict:
    fields = dict(tok.split("=", 1) for tok in shlex.split(info_line) if "=" in tok)
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                      if ln.startswith("model name")), model)
    return {"cpus": os.cpu_count(), "cpu_model": model, "numpy": fields.get("numpy"),
            "python": platform.python_version(), "blas": f"{fields.get('blas')}, one BLAS thread"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--what", required=True, help="one line: what the change does and what it claims")
    ap.add_argument("--pairs", nargs="+", default=["ensemble_d4=10", "spectral_d256=4",
                                                    "orbit_magic=4", "stabilizer_tables=4"])
    args = ap.parse_args(argv)
    pairs = {workload: int(n) for workload, n in (p.split("=") for p in args.pairs)}
    odd = [f"{workload}={n}" for workload, n in pairs.items() if n % 2]
    if odd:
        ap.error(f"pair counts must be even, so each side runs first in half the pairs: {' '.join(odd)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g}, parent and "
                   "change alternating which runs first over an even number of pairs; each side from its own "
                   "checkout",
        "workloads": {},
    }
    for workload, n in pairs.items():
        doc["workloads"][workload] = _workload(dirs, workload, n, seconds, better)
    doc["claim"] = [
        {"workload": workload, "metric": metric, **{k: entry[metric][k] for k in (
            "pairs_change_better", "median_improvement", "parent_interquartile_range")},
         "pairs": entry["pairs"]}
        for workload, entry in doc["workloads"].items()
        for metric in better if entry[metric]["gain_met"]
    ]
    doc["per_layer_traced_median"] = {"seeds": list(TRACE_SEEDS)}
    for workload in doc["workloads"]:
        runs = {side: [] for side in SIDES}
        for k, seed in enumerate(TRACE_SEEDS):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                info, result = _bench(dirs[side], workload, seed, seconds, trace=1)
                runs[side].append(result["metrics"])
        doc["per_layer_traced_median"][workload] = {
            side: {name: statistics.median(r[name]["value"] for r in runs[side]) for name in runs[side][0]}
            for side in SIDES
        }
    doc["tier1_one_run_each"] = {side: _tier1(dirs[side]) for side in SIDES}
    selftest = {side: doc["tier1_one_run_each"][side]["selftest"] for side in SIDES}
    doc["selftest_detail_same"] = {
        key: all(selftest["parent"][key][k] == selftest["change"].get(key, {}).get(k) for k in ("verdict", "detail"))
        for key in selftest["parent"]
    }
    walls = {}
    for key, command in CLI_COMMANDS.items():
        per_state = {name: _cli_sides(dirs, [*command, "--state", f"src/chiralkit/data/{name}", "--split", "0|1"],
                                      walls, f"{key} {name}")
                     for name in CLI_STATES}
        stdout = {side: {name: per_state[name][side] for name in CLI_STATES} for side in SIDES}
        doc[f"{key}_stdout"] = stdout
        doc[f"{key}_stdout_same"] = {
            name: stdout["parent"][name] == stdout["change"][name] for name in CLI_STATES
        }
    bounds = _cli_sides(dirs, ["bounds", "--n", "10"], walls, "bounds")
    doc["bounds_stdout"] = bounds
    doc["bounds_stdout_same"] = bounds["parent"] == bounds["change"]
    with tempfile.TemporaryDirectory() as tmp:
        # both sides write the same path, so their stdout can be compared
        scan = _cli_sides(dirs, ["scan", "--n", "200", "--seed", "3", "--out", f"{tmp}/scan.csv"], walls, "scan")
        for name, text in TABLEAUX.items():
            Path(tmp, name).write_text(text)
        per_tableau = {name: _cli_sides(dirs, ["stabilizer", "--tableau", f"{tmp}/{name}"], walls, f"stabilizer {name}")
                       for name in TABLEAUX}
        tableaux = {side: {name: per_tableau[name][side] for name in TABLEAUX} for side in SIDES}
    doc["scan_stdout"] = scan
    doc["scan_stdout_same"] = scan["parent"] == scan["change"]
    doc["stabilizer_stdout"] = tableaux
    doc["stabilizer_stdout_same"] = {name: tableaux["parent"][name] == tableaux["change"][name] for name in TABLEAUX}
    doc["cli_wall_s"] = walls
    for tree in ("src", "tests"):
        doc[f"{tree}_lines"] = {side: _lines(dirs[side], tree) for side in SIDES}
    doc["machine"] = _machine(info)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

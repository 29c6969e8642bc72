"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --workloads gram-sweep --trace
    python3 perfbench/steady.py --seeds 1-10 --trace --baseline perfbench/baseline.json
    python3 perfbench/steady.py --seeds 11-20 --baseline perfbench/baseline.json

Each run is ``perfbench/run.py`` in a fresh process, with the run length from
BENCHMARK.json.  The spread of a metric is the distance between the first
and third quartile of its values (``statistics.quantiles(values, n=4)``) as
a share of their median; it is compared with the metric's bound.
Every spread must stay below a third of its bound, ``setup_s`` included.
``--trace`` adds one traced run per workload, on the first seed.
``--baseline`` adds this set of runs (every run, the medians and quartiles,
the traced metrics and the machine record) to a file, to quote later
changes against; when the file already holds a set, each median is also
compared with the first set's, as two sets of runs of the same code must
agree within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns its result line and its machine record."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line[8:]) for line in lines if line.startswith("machine "))
    return json.loads(lines[-1]), machine


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    stored = {"sets": []}
    if args.baseline and args.baseline.exists():
        stored = json.loads(args.baseline.read_text())
    sets = stored["sets"]
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, machine = run_once(workload, seed, spec["run_seconds"], False)
            runs.append(result)
            record["machine"] = machine
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f"; failed {result['failed']}/{result['attempted']}, correct {result['correct']}",
                flush=True)
        entry = {"runs": runs, "end_to_end": {}}
        for name, bound in bounds.items():
            median, q1, q3, share = spread([r["metrics"][name]["value"] for r in runs])
            ok = share <= bound / 3
            steady = steady and ok
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": share, "bound": bound}
            print(f"{workload} {name}: median {median:.4g}, spread {share:.3f} "
                  f"(bound {bound}, {'ok' if ok else 'ABOVE a third of the bound'})", flush=True)
            if sets and workload in sets[0]["workloads"]:
                first = sets[0]["workloads"][workload]["end_to_end"][name]["median"]
                change = median / first - 1.0
                agree = abs(change) <= bound
                steady = steady and agree
                entry["end_to_end"][name]["vs_first_set"] = change
                print(f"{workload} {name}: {change:+.3f} against the first set's median "
                      f"({'ok' if agree else 'OUTSIDE the bound'})", flush=True)
        if args.trace:
            traced, _ = run_once(workload, seeds[0], spec["run_seconds"], True)
            entry["traced"] = traced
            print(f"{workload} traced: failed {traced['failed']}/{traced['attempted']}", flush=True)
        record["workloads"][workload] = entry
    if args.baseline:
        sets.append(record)
        args.baseline.write_text(json.dumps(stored, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run perfbench/run.py over several seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/sweep.py --workloads all --seeds 1-10 --seconds 25
    python3 perfbench/sweep.py --workloads oracle-sweep --seeds 1-5 --trace 1

Runs go one at a time, each in its own process, seed by seed with the
workloads interleaved.  For every metric the summary gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median.  For end-to-end metrics the spread is compared with
a third of the bound in BENCHMARK.json.  --summary FILE writes all of it as
JSON.  Exits 1 if any run failed.
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
RUN_TIMEOUT_S = 180


def parse_seeds(raw: str) -> list[int]:
    lo, _, hi = raw.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    return result, detail


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="lo-hi, inclusive")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", type=Path, help="write the summary here")
    args = parser.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    runs, ok = [], True
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            result, detail = run_once(w, seed, args.seconds, args.trace)
            good = result["correct"] and result["returncode"] == 0
            ok = ok and good
            print(f"{w} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if not k.startswith("cli.suite")),
                  flush=True)
            runs.append({"workload": w, "seed": seed, "result": result,
                         "environment": detail["environment"],
                         "reference": detail["reference"],
                         "counts": detail["counts"]})
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])

    summary = {w: {name: summarise(vals) for name, vals in per.items() if len(vals) >= 2}
               for w, per in values.items()}
    print("\nworkload metric median q1 q3 spread [bound/3]")
    for w, per in summary.items():
        for name, s in per.items():
            if args.trace and name.startswith("cli.suite"):
                continue
            note = ""
            if name in bounds and s["spread"] is not None:
                steady = s["spread"] <= bounds[name] / 3
                note = f" [{bounds[name] / 3:.3f} {'ok' if steady else 'WIDE'}]"
            if len(set(s["values"])) == 1:
                note += " (identical in every run)"
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{w} {name} {s['median']:.6g} {s['q1']:.6g} {s['q3']:.6g} "
                  f"{spread}{note}")
    if args.summary:
        args.summary.write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads gappy-fit,...] \\
        [--trace 0|1] [--out perfbench/baseline.json]
    python3 perfbench/prove.py --compare perfbench/baseline.json \\
        perfbench/baseline_set2.json

Runs are made one after another, never side by side.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles`` with
``n=4``), the spread ``(q3 - q1) / median`` and the metric's bound from
``BENCHMARK.json``.  ``--out`` stores every run's result next to the
summary, which is how ``baseline.json`` and ``baseline_set2.json`` were
made.  ``--compare A B`` reads two such files and prints, per workload and
gated metric, how far B's median is from A's, as a share of A's median,
next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_wall_s"] = wall
    for line in lines:
        if line.startswith("job seconds:"):
            result["job_seconds"] = [float(v) for v in line.split()[2:]]
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def compare(bench: dict, first: str, second: str) -> None:
    a, b = (json.loads(Path(f).read_text(encoding="utf-8"))["workloads"]
            for f in (first, second))
    for workload in a:
        for m in bench["end_to_end"]:
            m1 = a[workload]["summary"][m["name"]]["median"]
            m2 = b[workload]["summary"][m["name"]]["median"]
            shift = (m2 - m1) / m1
            worse = -shift if m["better"] == "higher" else shift
            flag = "ok" if worse <= m["bound"] else "WORSE"
            print(f"{workload:<13} {m['name']:<12} {m1:.5g} -> {m2:.5g} "
                  f"shift {shift:+.3f} (bound {m['bound']}) {flag}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in
                                         bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="RESULTS")
    args = parser.parse_args(argv)
    if args.compare:
        compare(bench, *args.compare)
        return 0
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seed_list(args.seeds):
            res = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs[seed] = res
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in res["metrics"].items()
                              if not args.trace)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"jobs={res['attempted']} wall={res['run_wall_s']:.1f}s "
                  f"{values}", flush=True)
        summary = {}
        if not args.trace:
            # printed but ungated: how far the run median and rate spread
            p50 = summarise([statistics.median(r["job_seconds"])
                             for r in runs.values()])
            rate = summarise([len(r["job_seconds"]) / sum(r["job_seconds"])
                              for r in runs.values()])
            print(f"  (ungated) job_p50_s spread {p50['spread']:.3f}, "
                  f"jobs_per_s spread {rate['spread']:.3f}", flush=True)
            summary["job_p50_s"], summary["jobs_per_s"] = p50, rate
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs.values()]
            summary[m["name"]] = summarise(vals)
            if "bound" in m:
                s = summary[m["name"]]
                flag = "ok" if s["spread"] < m["bound"] / 3 else (
                    "WIDE" if s["spread"] >= m["bound"] else "near")
                print(f"  {m['name']:<12} median {s['median']:.5g} "
                      f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread "
                      f"{s['spread']:.3f} (bound {m['bound']}) {flag}",
                      flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

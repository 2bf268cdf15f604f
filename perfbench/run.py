"""Layered benchmark of the ``gnar`` command line.

    python3 perfbench/run.py --workload gappy-fit --seed 1 --seconds 20 \\
        --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  One run is one fresh process with OpenBLAS pinned
to one thread, driving a closed loop with a single client: each job is one
``gnar.cli.main(argv)`` call, in process, on inputs drawn from the workload
seed, and the next job starts when the previous one has finished and its
outputs have been checked.  Only time inside ``main`` counts; the loop stops
starting jobs once that time reaches ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates plain and traced jobs and reports the per-layer
metrics, per traced job, with ``trace.overhead_ratio`` comparing the two
halves.  The last line of standard output is the JSON result; the lines
before it repeat every metric with its unit for a reader.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def clear_package_caches() -> None:
    """Empty every ``functools`` cache in the package, as a new CLI process
    would find them."""
    for name, module in list(sys.modules.items()):
        if name == "gnar" or name.startswith("gnar."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_jobs(workload, seed: int, seconds: float, tracer, setup_sample):
    """Closed loop of jobs.

    Returns one ``(seconds, traced, ok, reference_seconds)`` record per job
    and the jobs' input properties.  ``setup_sample``, when given, is
    called at evenly spaced points of the measured time, so set-up samples
    see the same host phases as the jobs.
    """
    import numpy as np
    import gnar.cli
    import machine
    from workloads import SMALL_ARRAY_WORK, WORKLOADS, CheckFailed

    prepare = WORKLOADS[workload]
    small_arrays = workload in SMALL_ARRAY_WORK
    records = []
    props = []
    measured = {False: 0.0, True: 0.0}
    samples = 0
    jobdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        while True:
            done = sum(measured.values())
            while setup_sample and samples < SETUP_REPEATS * min(
                    1.0, done / seconds):
                setup_sample()
                samples += 1
            traced = tracer is not None and len(records) % 2 == 1
            if done >= seconds and (tracer is None or all(measured.values())):
                break
            shutil.rmtree(jobdir, ignore_errors=True)
            jobdir.mkdir(parents=True)
            job = prepare(np.random.default_rng([seed, len(records)]), jobdir)
            props.append(job.properties)
            clear_package_caches()
            gc.collect()
            ref_before = machine.reference_seconds(small_arrays)
            start = time.perf_counter()
            try:
                if traced:
                    code = tracer.run_job(gnar.cli.main, job.argv)
                else:
                    code = gnar.cli.main(job.argv)
            except (Exception, SystemExit):
                code = "exception"
                traceback.print_exc()
            elapsed = time.perf_counter() - start
            ref = (ref_before + machine.reference_seconds(small_arrays)) / 2
            measured[traced] += elapsed
            ok = code == 0
            if ok:
                try:
                    job.check()
                except CheckFailed as exc:
                    ok = False
                    print(f"job {len(records)}: check failed: {exc}",
                          file=sys.stderr)
            else:
                print(f"job {len(records)}: exit {code}", file=sys.stderr)
            records.append((elapsed, traced, ok, ref))
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)
    return records, props


def rate(records, traced: bool) -> float:
    done = sum(r[2] for r in records if r[1] == traced)
    return done / sum(r[0] for r in records if r[1] == traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS
    src = ROOT / "src"
    if not (src / "gnar" / "cli.py").is_file():
        print(f"no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)

    import gnar
    if Path(gnar.__file__).resolve().parent != (src / "gnar").resolve():
        print(f"gnar imported from {gnar.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import machine
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    env = dict(os.environ)

    print("machine: " + json.dumps(machine.facts()))
    metrics: dict[str, float] = {}
    setup = []
    if args.trace:
        metrics.update(machine.import_breakdown(ROOT, env,
                                                IMPORTTIME_REPEATS))
        tracer, setup_sample = Tracer(), None
    else:
        machine.setup_seconds(ROOT, env)  # writes the bytecode caches
        tracer = None

        def setup_sample():
            setup.append(machine.setup_seconds(ROOT, env))

    WORK.mkdir(exist_ok=True)
    records, props = run_jobs(args.workload, args.seed, args.seconds, tracer,
                              setup_sample)
    attempted = len(records)
    failed = sum(not r[2] for r in records)
    if args.trace:
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        layers = [m["name"][:-len(".self_s")] for m in wanted
                  if m["name"].endswith(".self_s")]
        metrics.update(tracer.per_job_metrics(layers))
        metrics["trace.overhead_ratio"] = (
            rate(records, True) / rate(records, False))
        metrics["fail_ratio"] = failed / attempted
        for key in props[0]:
            metrics[key] = statistics.fmean(p[key] for p in props)
    else:
        passed = [r for r in records if r[2]] or records
        metrics["setup_s"] = machine.REFERENCE_S * statistics.median(
            wall / ref for wall, ref in setup)
        metrics["job_p50_ref"] = statistics.median(r[0] / r[3]
                                                   for r in passed)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        # seconds track the host's speed phases too closely to be gated
        print(f"job_p50_s {statistics.median(r[0] for r in passed):.6g} s")
        print(f"jobs_per_s {rate(records, False):.6g} 1/s")
        print(f"reference_p50_s {statistics.median(r[3] for r in records):.6g}"
              " s")
        print(f"setup_wall_s {statistics.median(s[0] for s in setup):.6g} s")

    print("job seconds: " + " ".join(f"{r[0]:.4f}" for r in records))
    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs "
          f"attempted, {failed} failed")
    print(f"fail_ratio {failed / attempted:.6g} ratio")
    result = {}
    for spec in wanted:
        value = float(metrics.get(spec["name"], 0.0))
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value:.6g} {spec['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

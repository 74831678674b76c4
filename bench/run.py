"""Benchmark of the dressedcavity pipeline: three closed-loop workloads.

    python3 bench/run.py --workload {figure,sweep,large_n} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all      # each workload in its own process
    python3 bench/run.py --self-test         # tiny sizes, metric names, a perturbed output

One process runs one workload: one caller, and the next job starts only after
the previous one returned.  The seed fixes a deck of jobs (``workloads.py``)
sized to take about ``--seconds``.  The package is imported from ``src/`` of
the checkout this file sits in; without it the benchmark exits with code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a deck half
as long, every job twice, untraced and traced in alternating order, and
prints the per-layer metrics from the traced runs (spans: ``tracing.py``).
Each job's outputs are checked outside the timed region (``checks.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  A job fails when the package reports
a failure (non-zero exit code or one of its own exceptions) or an output
check misses; ``correct`` is false when an output check misses on a job the
package reported as successful, or when a job fails outside the package's
own error model.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use; call
    before numpy is imported.  Child processes inherit the caps."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def load_package():
    if not (SRC / "dressedcavity" / "__init__.py").is_file():
        sys.exit(f"error: no dressedcavity source under {SRC}")
    sys.path.insert(0, str(SRC))
    import dressedcavity
    import dressedcavity.cli  # noqa: F401
    if Path(dressedcavity.__file__).resolve().parent != SRC / "dressedcavity":
        sys.exit(f"error: imported dressedcavity from {dressedcavity.__file__}, not {SRC}")
    return dressedcavity


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": nproc, "threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas, "commit": commit}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_time(workload: str) -> float:
    """Wall time of a fresh interpreter that imports the package and runs a tiny job."""
    target = WORK / f"probe-{os.getpid()}"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(target)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(target, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return elapsed


def run_jobs(dc, workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
             setup_reps: int):
    """Closed loop over the seeded deck, sized to take about ``seconds``.

    A traced run takes a deck half as long and runs every job twice, untraced
    and traced, in alternating order.  The ``setup_reps`` set-up probes run
    between jobs, spread evenly over the run, so that they meet the same
    machine conditions as the jobs."""
    import checks
    import tracing
    import workloads

    checker = checks.Checker(seed)
    tracer = tracing.Tracer() if trace else None
    deck = workloads.tiny_jobs(workload) if tiny \
        else workloads.deck(workload, seed, seconds / (2 if trace else 1))
    probes = [len(deck) * k // setup_reps for k in range(setup_reps)]
    scratch = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    for job in workloads.tiny_jobs(workload):          # warm-up, untimed
        workloads.execute(dc, job, str(scratch / "warm"))
    records, setup = [], []
    for i, job in enumerate(deck):
        setup += [setup_time(workload) for _ in range(probes.count(i))]
        order = [False, True] if trace else [False]
        for traced in (order if i % 2 == 0 else order[::-1]):
            out = scratch / f"job{i}-{int(traced)}"
            if traced:
                tracer.patch(dc)
            t0 = time.perf_counter()
            try:
                with tracer.job(i) if traced else nullcontext():
                    outcome = workloads.execute(dc, job, str(out))
                dt = time.perf_counter() - t0
                status, detail = checker.check(job, outcome)
            except Exception:                           # the run goes on; the job failed
                dt = time.perf_counter() - t0
                status, detail = "crash", traceback.format_exc(limit=3).strip()
            finally:
                if traced:
                    tracer.unpatch()
            shutil.rmtree(out, ignore_errors=True)
            params = {k: v for k, v in job.items() if k != "argv"}
            records.append({"job": i, "traced": traced, "seconds": dt,
                            "status": status, "detail": detail, **params})
    shutil.rmtree(scratch, ignore_errors=True)
    return records, setup, tracer


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (p50 floor)."""
    return max(50, math.floor(100 * (n - 10) / n)) if n else 50


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  A deck's jobs differ in size, so the plain order
    statistic at a rank is one job's time with all of its jitter; the
    weighted mean spreads the estimate over the jobs near that rank."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(samples)
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    times = [r["seconds"] for r in records]
    ok = sum(r["status"] == "ok" for r in records)
    pct = tail_percentile(len(times))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (quantile(times, 0.5), "s"),
        "job_s.tail": (quantile(times, pct / 100), "s"),
        "jobs_per_s": (ok / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (ok / len(records), "ratio"),
    }
    notes = {"job_s.p50": f"Harrell-Davis, n={len(times)}",
             "job_s.tail": f"p{pct} of n={len(times)}, Harrell-Davis",
             "setup_s": f"median of {len(setup)} fresh interpreters",
             "ok_ratio": f"fail_ratio={1 - ok / len(records):.4f}"}
    return metrics, notes


def per_layer(records: list[dict], tracer) -> dict:
    import tracing
    spans = tracer.spans
    own = tracing.self_times(spans)
    jobs = max(1, sum(s.layer == "job" for s in spans))

    def per_job(select, value=lambda s: own[id(s)]):
        return sum(value(s) for s in spans if select(s)) / jobs

    def layer(name):
        return lambda s: s.layer == name

    def fn(name):
        return lambda s: s.fn == name

    def work(key):
        return lambda s: (s.work or {}).get(key, 0)

    def once(_):
        return 1

    def repeat_ratio(name):
        seen, calls, repeats = set(), 0, 0
        for s in spans:
            if s.fn == name:
                key = (s.job, s.work["key"])
                calls += 1
                repeats += key in seen
                seen.add(key)
        return repeats / calls if calls else 0.0

    m = {f"{mod}.self_s": (per_job(lambda s, p=mod: s.layer.split(".")[0] == p), "s/job")
         for mod in tracing.MODULES}
    solve_s = per_job(layer("spectrum.solve"))
    roots = per_job(fn("solve_eigenfrequencies"), work("roots"))
    defects = [s.work["weight_sum_defect"] for s in spans if s.fn == "atom_weights"]
    m.update({
        "spectrum.solve.calls": (per_job(fn("solve_eigenfrequencies"), once), "count/job"),
        "spectrum.solve.roots": (roots, "count/job"),
        "spectrum.solve.self_s": (solve_s, "s/job"),
        "spectrum.solve.s_per_root": (solve_s / roots if roots else 0.0, "s"),
        "spectrum.solve.repeat_ratio": (repeat_ratio("solve_eigenfrequencies"), "ratio"),
        "spectrum.residual.self_s": (per_job(layer("spectrum.residual")), "s/job"),
        "coupling.build_matrix.calls": (per_job(fn("build_matrix"), once), "count/job"),
        "coupling.build_matrix.self_s": (per_job(layer("coupling.build_matrix")), "s/job"),
        "coupling.build_matrix.repeat_ratio": (repeat_ratio("build_matrix"), "ratio"),
        "coupling.build_matrix.bytes": (per_job(fn("build_matrix"), work("bytes")), "B/job"),
        "coupling.atom_weights.calls": (per_job(fn("atom_weights"), once), "count/job"),
        "coupling.atom_weights.self_s": (per_job(layer("coupling.atom_weights")), "s/job"),
        "coupling.weight_sum_defect.max": (max(defects, default=0.0), "1"),
    })
    for name, count in (("dynamics.free_space", "points"), ("dynamics.discrete", "terms"),
                        ("dynamics.small_cavity", "terms"), ("dynamics.survival", "terms")):
        m[f"{name}.self_s"] = (per_job(layer(name)), "s/job")
        m[f"{name}.{count}"] = (per_job(layer(name), work(count)), "count/job")
    pairs: dict = {}
    for r in records:
        pairs.setdefault(r["job"], {})[r["traced"]] = r["seconds"]
    overhead = [p[True] / p[False] for p in pairs.values() if len(p) == 2]
    m.update({
        "bipartite.calls": (per_job(layer("bipartite"), once), "count/job"),
        "oracle.diagonalize.calls": (per_job(fn("diagonalize"), once), "count/job"),
        "oracle.diagonalize.self_s": (per_job(layer("oracle.diagonalize")), "s/job"),
        "oracle.cross_checks.self_s": (per_job(layer("oracle.cross_checks")), "s/job"),
        "oracle.cross_checks.failed": (per_job(layer("oracle.cross_checks"), work("failed")),
                                       "count/job"),
        "cli.write_csv.self_s": (per_job(layer("cli.write_csv")), "s/job"),
        "cli.write_csv.bytes": (per_job(layer("cli.write_csv"), work("bytes")), "B/job"),
        "trace.job_s": (per_job(layer("job"), lambda s: s.end - s.start), "s/job"),
        "trace.unattributed_s": (per_job(layer("job")), "s/job"),
        "trace.overhead_ratio": (statistics.median(overhead) - 1.0, "ratio"),
    })
    return m


def layer_coverage(workload: str, spans) -> list[str]:
    """Layers the workload should reach but did not, or should never reach but did."""
    import workloads
    seen = {s.layer for s in spans}

    def hit(name):
        return any(layer == name or layer.startswith(name + ".") for layer in seen)

    want = workloads.LAYERS[workload]
    return [f"missed {n}" for n in want["reach"] if not hit(n)] + \
        [f"reached {n}" for n in want["never"] if hit(n)]


def measure(dc, workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
            setup_reps: int = SETUP_REPS) -> dict:
    WORK.mkdir(exist_ok=True)
    records, setup, tracer = run_jobs(dc, workload, seed, seconds, trace, tiny,
                                      0 if trace else setup_reps)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "records": records}
    if trace:
        import tracing
        m = per_layer(records, tracer)
        modules = sum(m[f"{mod}.self_s"][0] for mod in tracing.MODULES)
        report["metrics"] = m
        report["notes"] = {"trace.job_s": f"= module self times {modules:.6g} "
                                          f"+ unattributed {m['trace.unattributed_s'][0]:.3g}"}
        report["layers"] = layer_coverage(workload, tracer.spans)
        spans_path = WORK / f"spans-{workload}-s{seed}.jsonl"
        tracer.dump(str(spans_path))
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        report["metrics"], report["notes"] = end_to_end(records, setup)
        report["setup_runs"] = setup
    return report


def summary(report: dict) -> dict:
    records = report["records"]
    failed = sum(r["status"] != "ok" for r in records)
    return {"correct": not any(r["status"] in ("wrong", "usage", "crash") for r in records),
            "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in report["metrics"].items()}}


def print_report(report: dict, env: dict) -> None:
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']}")
    for name, (value, unit) in report["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"  {name:34s} {value:14.6g} {unit:9s} {note}")
    kinds: dict = {}
    for r in report["records"]:
        kinds.setdefault(r["kind"], []).append(r)
    for kind, rs in kinds.items():
        counts = {}
        for r in rs:
            counts[r["status"]] = counts.get(r["status"], 0) + 1
        print(f"  check {kind:16s} " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        for r in [r for r in rs if r["status"] != "ok"][:3]:
            where = " ".join(f"{k}={r[k]:.4g}" for k in ("n_modes", "delta", "g") if k in r)
            print(f"    {r['status']}: {where}: {r['detail'][:300]}")
    if report.get("layers") is not None:
        print("  layers " + ("; ".join(report["layers"]) or "as declared"))


def run_all(args) -> int:
    import workloads
    rows, rc = [], 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout + proc.stderr)
        if proc.returncode != 0:
            rc = proc.returncode
            continue
        result = json.loads(lines[-1])
        rows.append((w, result))
    for w, result in rows:
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    nproc = cap_threads()
    # numpy, and with it every bench module but this one, loads only from here on
    dc = load_package()
    if args.self_test:
        import selftest
        return selftest.main(dc)
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS} or all")
    report = measure(dc, args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(nproc)
    report["env"] = env
    result = summary(report)
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**report, "result": result}, indent=1, default=str))
    print_report(report, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny sizes; leaves the package untouched.

For each workload it runs the closed loop briefly in both trace modes and
checks that every metric named in BENCHMARK.json is reported and printed
with its unit, that the traced run reaches exactly the declared layers, and
that every tiny job passes its output check while a perturbed copy of the
same output fails it.

    python3 bench/run.py --self-test
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import checks
import run
import workloads

# CLI job kind -> (file, column, rows, added amount)
PERTURB_CSV = {
    "impurity": ("impurity_small_cavity.csv", 3, [5], 1e-7),
    "spectrum": ("spectrum_roots.csv", 1, [1], 1e-7),
    "amplitude-exact": ("amplitude.csv", 1, [3], 1e-7),
    "entropy-exact": ("entropy.csv", 7, [3], 1e-7),
    "matrix-dump": ("transform_matrix.csv", 2, [2], 1e-5),
    "amplitude-small": ("amplitude.csv", 1, slice(None), 1e-8),
}


def _edit_csv(path: Path, column: int, rows, amount: float) -> None:
    header, *body = path.read_text().splitlines()
    for i in range(len(body))[rows] if isinstance(rows, slice) else rows:
        cells = body[i].split(",")
        cells[column] = repr(float(cells[column]) + amount)
        body[i] = ",".join(cells)
    path.write_text("\n".join([header] + body) + "\n")


def perturb(job: dict, outcome: dict) -> dict:
    """The same outcome with one result nudged past its check's tolerance."""
    if job["kind"] == "oracle-check":
        return {**outcome, "stdout": outcome["stdout"].replace(",pass", ",FAIL", 1)}
    if job["kind"] == "survival":
        weights = outcome["weights"].copy()
        weights[0] += 1e-8
        return {**outcome, "weights": weights}
    name, column, rows, amount = PERTURB_CSV[job["kind"]]
    _edit_csv(Path(outcome["out"]) / name, column, rows, amount)
    return outcome


def main(dc) -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            report = run.measure(dc, workload, seed=1, seconds=0.5, trace=trace, tiny=True,
                                 setup_reps=1)
            result = run.summary(report)
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                run.print_report(report, {})
            printed = {line.split()[0]: line.split()[2] for line in text.getvalue().splitlines()
                       if line.startswith("  ") and len(line.split()) >= 3}
            for metric in declared["per_layer" if trace else "end_to_end"]:
                name, unit = metric["name"], metric["unit"]
                if result["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{workload}: {name} not reported in {unit}")
                if printed.get(name) != unit:
                    problems.append(f"{workload}: {name} not printed with {unit}")
            extra = set(result["metrics"]) - {m["name"] for m in
                                              declared["per_layer" if trace else "end_to_end"]}
            if extra:
                problems.append(f"{workload}: undeclared metrics {sorted(extra)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: tiny run failed: {result}")
            if trace and report["layers"]:
                problems.append(f"{workload}: layers {report['layers']}")
        checker = checks.Checker(1)
        for n, job in enumerate(workloads.tiny_jobs(workload)):
            out = run.WORK / f"selftest-{workload}-{n}"
            outcome = workloads.execute(dc, job, str(out))
            clean = checker.check(job, outcome)
            dirty = checker.check(job, perturb(job, outcome))
            shutil.rmtree(out, ignore_errors=True)
            print(f"{workload:8s} {job['kind']:16s} clean={clean[0]:8s} perturbed={dirty[0]} "
                  f"({dirty[1][:80]})")
            if clean[0] != "ok" or dirty[0] != "wrong":
                problems.append(f"{workload}/{job['kind']}: clean {clean}, perturbed {dirty}")
    for p in problems:
        print("FAIL", p)
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0

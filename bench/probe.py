"""Set-up probe: a fresh interpreter imports dressedcavity and runs one tiny job.

Run by ``run.py`` several times per run; the median wall time of these
processes, interpreter start included, is the ``setup_s`` metric.

    python3 bench/probe.py <workload> <out_dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dressedcavity  # noqa: E402
import dressedcavity.cli  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    outcome = workloads.execute(dressedcavity, workloads.tiny_jobs(sys.argv[1])[0], sys.argv[2])
    sys.exit(0 if outcome["rc"] == 0 else 1)

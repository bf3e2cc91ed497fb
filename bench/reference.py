"""Record bench/reference.json from plain `eegid` runs on the reference seed.

Usage: python3 bench/reference.py

For each workload this writes the reference-seed inputs, runs the pass's
commands through `python3 -m eegid.cli` with `src/` on the path (exactly
what the `eegid` console script runs, with no benchmark code in the
process), and records what check.py compares against: fold accuracies,
report digests and per-row projections of the cached feature matrix for
`evaluate`, and per-row projections of each CSV for `features`.  Run it on
the commit whose outputs are the reference; later commits are checked
against that file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import check
import run
import workloads as wl


def plain_cli(argv):
    env = dict(os.environ, **run.BLAS_ENV, PYTHONPATH=str(run.ROOT / "src"))
    subprocess.run([sys.executable, "-m", "eegid.cli", *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    out = {"seed": check.REFERENCE_SEED, "commit": commit(), "workloads": {}}
    work = run.ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in wl.WORKLOADS.values():
            inputs = wl.write_inputs(workload, check.REFERENCE_SEED, work / workload.name / "inputs")
            pass_dir = work / workload.name / "pass"
            pass_dir.mkdir(parents=True)
            commands = wl.pass_commands(workload, inputs["manifest"], pass_dir)
            for argv in commands:
                plain_cli(argv)
            if workload.config is not None:
                reports = Path(commands[0][commands[0].index("--out") + 1])
                problems = check.check_report(workload, reports)  # includes the cache
                if not problems:
                    doc = json.loads(check.report_files(workload, reports)[0].read_text())
                    with np.load(check.feature_cache(reports)[0], allow_pickle=False) as blob:
                        projections = check.feature_projections(blob["x"])
                    entry = {
                        "fold_accuracies": doc["fold_accuracies"],
                        "sha256": check.digest(check.report_files(workload, reports)),
                        "features": projections.tolist(),
                    }
            else:
                entry, problems = {"features": {}}, []
                for argv in commands:
                    csv = Path(argv[argv.index("--out") + 1])
                    problems += check.check_features(csv, workload, argv[argv.index("--metric") + 1])
                    _, _, values = check.read_features(csv)
                    entry["features"][csv.stem] = check.feature_projections(values).tolist()
            if problems:
                sys.exit(f"{workload.name}: reference outputs fail the seed-free checks: {problems}")
            out["workloads"][workload.name] = entry
            print(f"{workload.name}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Steadiness check: two sets of benchmark runs of the same code must agree.

Usage: python3 bench/steady.py [--runs 10] [--sets 2]

Each set runs bench/run.py once per seed (0 .. runs-1) on every workload of
BENCHMARK.json, for its run_seconds, with tracing off.  Per workload and
end-to-end metric it reports each set's median and spread (distance between
the first and third quartile, as a share of the median), then checks,
against the bounds in BENCHMARK.json:

- every spread except that of setup_s is within the bound, with a target
  of a third of the bound.  setup_s is exempt from the spread test, as in
  the benchmark's acceptance rules, but its spread is printed and its
  medians must agree like every other metric's;
- every later set's median is no worse than the first set's by more than
  the bound.

With --runs 1 --sets 1 it just prints every end-to-end metric of every
workload once.  Exit code 0 when every check holds, 1 otherwise.  Raw
results go to .bench_work/steady.json.
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


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(entry, base, new):
    change = (new - base) / base
    return change if entry["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)

    results = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for w in names:
            for seed in range(args.runs):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=False, timeout=240)
                line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
                result = json.loads(line) if proc.returncode == 0 else {}
                values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
                results[w][s].append({"seed": seed, "correct": result.get("correct", False),
                                      "metrics": values})
                print(f"set {s + 1} {w} seed {seed}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}/{result.get('attempted')} "
                      + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    (ROOT / ".bench_work" / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\n{'workload':<14}{'metric':<13}{'bound':>6}  " + "  ".join(
        f"{'set ' + str(s + 1) + ' median':>14}{'spread':>8}" for s in range(args.sets))
        + f"{'worse':>8}  verdict")
    for w in names:
        runs = results[w]
        if not all(r["correct"] for rs in runs for r in rs):
            print(f"{w}: some runs failed or were incorrect")
            ok = False
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            sets = [[r["metrics"][name] for r in rs if name in r["metrics"]] for rs in runs]
            if not all(sets):
                print(f"{w:<14}{name:<13} no results")
                ok = False
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in sets]
            worst = max(worsening(entry, medians[0], m) for m in medians[1:]) \
                if len(medians) > 1 else 0.0
            failures, notes = [], []
            if max(spreads) > bound:
                (notes if name == "setup_s" else failures).append("spread above bound")
            elif max(spreads) > bound / 3:
                notes.append("spread above bound/3")
            if name == "setup_s" and max(spreads) > bound / 3:
                notes.append("spread exempt")
            if worst > bound:
                failures.append("medians disagree")
            ok &= not failures
            verdict = "; ".join((["FAIL: " + ", ".join(failures)] if failures else []) + notes)
            print(f"{w:<14}{name:<13}{bound:>6.2f}  " + "  ".join(
                f"{m:>14.4f}{sp:>8.3f}" for m, sp in zip(medians, spreads))
                + f"{worst:>+8.3f}  {verdict or 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

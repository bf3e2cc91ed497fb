"""eegid benchmark: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measured pass is a fresh
Python process that imports `eegid` from `src/` and calls `eegid.cli.main`
the way one user invocation of `eegid` would, with a cold cache directory of
its own.  Inputs are generated from the seed before anything is timed.
Passes repeat while another one fits in --seconds (at least one; two with
tracing); every metric is the median over the passes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates traced and untraced passes and prints the per-layer metrics:
medians over the traced passes, plus the tracing overhead from the
untraced ones.  The last line of standard output is the JSON result; the
lines above it are a readable summary.  The full record (environment, every
pass, and for traced runs every span) goes to .bench_work/results/.

Exit codes: 0 with a result line; 2 when the program cannot run at all
(no `src/eegid`, or it does not import), without a result line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# No pass may be planned to end later than this after the run began, whatever
# --seconds or the minimum pass count says, so a run stays within 3 minutes.
_HARD_STOP_S = 120.0


class Fatal(Exception):
    """The program cannot be run at all; no result line is printed."""


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "seed": seed,
    }


def run_child(pass_dir, commands, traced):
    """Run one pass process; returns timings, rusage and the child's record."""
    pass_dir.mkdir(parents=True, exist_ok=True)  # the warm-up pass has no commands
    spec = pass_dir / "spec.json"
    result_file = pass_dir / "result.json"
    spec.write_text(json.dumps({"src": str(ROOT / "src"), "commands": commands,
                                "trace": traced, "result": str(result_file)}))
    env = dict(os.environ, **BLAS_ENV)
    with open(pass_dir / "log.txt", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec)], cwd=pass_dir,
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(result_file.read_text()) if result_file.is_file() else None
    return {
        "exit": proc.returncode,
        "wall_s": end - start,
        "setup_s": record["ready"] - start if record else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "record": record,
    }


def log_tail(pass_dir, lines=5):
    log = pass_dir / "log.txt"
    text = log.read_text(errors="replace") if log.is_file() else ""
    return text.splitlines()[-lines:]


def output_problems(workload, argv, reference):
    """Correctness problems of one command's outputs, and their digest."""
    if argv[0] == "evaluate":
        reports = Path(argv[argv.index("--out") + 1])
        problems = check.check_report(workload, reports, reference)
        paths = [p for p in check.report_files(workload, reports) if p.is_file()]
    else:
        out = Path(argv[argv.index("--out") + 1])
        metric = argv[argv.index("--metric") + 1]
        rows = reference["features"][out.stem] if reference else None
        problems = check.check_features(out, workload, metric, rows)
        paths = [out] if out.is_file() else []
    return problems, check.digest(paths)


def measure_pass(workload, manifest, pass_dir, traced, reference, first_digests):
    """One pass: run, then check every command's outputs (outside the timing)."""
    pass_dir.mkdir(parents=True)
    commands = wl.pass_commands(workload, manifest, pass_dir)
    p = run_child(pass_dir, commands, traced)
    record = p.pop("record")
    p["traced"] = traced
    failures = {}  # command index -> problems
    outcomes = record["commands"] if record else [None] * len(commands)
    for i, (argv, outcome) in enumerate(zip(commands, outcomes)):
        if outcome is None:
            failures[i] = [f"pass process exited {p['exit']}: " + " | ".join(log_tail(pass_dir))]
            continue
        if outcome["exit"] != 0:
            failures[i] = [f"exit {outcome['exit']} {outcome['error'] or ''} | "
                           + " | ".join(log_tail(pass_dir))]
            continue
        problems, digest = output_problems(workload, argv, reference)
        # every pass of a run sees the same inputs, so outputs must repeat exactly
        if first_digests.setdefault(i, digest) != digest:
            problems.append("outputs differ from the run's first pass")
        if reference and argv[0] == "evaluate":
            p["identical_to_plain_run"] = digest == reference["sha256"]
        if problems:
            failures[i] = problems
    p["attempted"] = len(commands)
    p["failed"] = len(failures)
    p["failures"] = [f"{commands[i][0]}#{i}: {msg}"
                     for i, msgs in sorted(failures.items()) for msg in msgs]
    if traced and record and "trace" in record:
        p["trace"] = record["trace"]
    return p


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except Fatal as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


def run(args):
    if not (ROOT / "src" / "eegid" / "cli.py").is_file():
        raise Fatal(f"no eegid package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = wl.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.write_inputs(workload, args.seed, work / "inputs")
        warm = run_child(work / "warmup", [], False)
        if warm["exit"] != 0 or warm["record"] is None:
            raise Fatal("the eegid package does not import: "
                        + " | ".join(log_tail(work / "warmup")))
        reference = check.load_reference(workload, args.seed)
        passes, digests = [], {}
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            pass_dir = work / f"pass{len(passes):02d}"
            passes.append(measure_pass(workload, inputs["manifest"], pass_dir, traced,
                                       reference, digests))
            shutil.rmtree(pass_dir, ignore_errors=True)
            # start another pass only if one more of typical length fits
            ends_at = time.monotonic() - start + median([p["wall_s"] for p in passes])
            if ends_at > _HARD_STOP_S or (len(passes) > args.trace and ends_at > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, spec, workload, inputs, passes, results_dir)


def report(args, spec, workload, inputs, passes, results_dir):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    e2e = {key: median([p[key] for p in plain if p[key] is not None])
           for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    env = environment(args.seed)
    print(f"# eegid benchmark  workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# passes={len(passes)} (untraced {len(plain)})  operations attempted={attempted} "
          f"failed={failed}  fail_frac={failed / attempted:.4f}")
    for p in passes:
        for failure in p["failures"]:
            print(f"#   FAIL {failure}")
    if "identical_to_plain_run" in passes[0]:
        same = all(p.get("identical_to_plain_run") for p in passes)
        print(f"# report files byte-identical to a plain `eegid evaluate` run: {same}")

    if args.trace:
        wanted = spec["per_layer"]
        metrics, table = traced_metrics(passes, inputs["recordings"], e2e["wall_s"])
        if not metrics:  # no traced pass completed; its failures are counted above
            metrics = dict.fromkeys((e["name"] for e in wanted), 0.0)
        for line in table:
            print(line)
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
        for entry in wanted:
            name = entry["name"]
            values = [p[name] for p in plain if p[name] is not None]
            print(f"# {name:>12} median {metrics[name]:.4f} {entry['unit']}"
                  f"  (n={len(values)}, min {min(values, default=0):.4f}, "
                  f"max {max(values, default=0):.4f})")
    missing = [e["name"] for e in wanted if e["name"] not in metrics]
    if missing:
        raise Fatal(f"BENCHMARK.json names metrics this benchmark does not compute: {missing}")

    # one flat span list: [pass, name, start, end, parent index within the pass]
    spans = [[i, *span] for i, p in enumerate(passes)
             for span in p.pop("trace", {}).get("spans", [])]
    record = {"workload": workload.name, "env": env, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "metrics": {e["name"]: metrics[e["name"]] for e in wanted},
              "passes": passes, "spans": spans}
    out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted},
    }))
    return 0


def traced_metrics(passes, recordings, untraced_wall):
    """Medians of the per-layer metrics over the traced passes, and a readable table."""
    traced = [p for p in passes if p["traced"] and "trace" in p]
    if not traced:
        return {}, ["# no traced pass completed"]
    per_pass = [tracer.pass_metrics(p["trace"], p["wall_s"], p["setup_s"], recordings)
                for p in traced]
    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    traced_wall = median([p["wall_s"] for p in traced])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    table = [f"# traced passes={len(traced)}  traced wall_s {traced_wall:.3f}  "
             f"untraced wall_s {untraced_wall:.3f}  overhead {metrics['trace.overhead_frac']:+.2%}"]
    absent = traced[0]["trace"]["absent"] + traced[0]["trace"]["hook_failures"]
    if absent:
        table.append(f"# absent spans: {absent}")
    table.append("# wall_s = setup + layer self times + unattributed, per traced pass:")
    for p, m in zip(traced, per_pass):
        parts = "  ".join(f"{layer} {m[layer + '.self_s']:.3f}" for layer in tracer.LAYERS)
        table.append(f"#   wall {p['wall_s']:.3f} = setup {m['trace.setup_s']:.3f}  {parts}"
                     f"  unattributed {m['trace.unattributed_s']:.3f}")
    work = sum(metrics[layer + ".self_s"] for layer in tracer.LAYERS) or 1.0
    table.append("# layer shares of traced work (median self time): " + "  ".join(
        f"{layer} {metrics[layer + '.self_s'] / work:.1%}" for layer in tracer.LAYERS))
    return metrics, table


if __name__ == "__main__":
    sys.exit(main())

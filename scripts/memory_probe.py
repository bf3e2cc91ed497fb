#!/usr/bin/env python3
"""Peak memory of a cold `ingest` and a warm `features` at paper-like scale.

Writes a synthetic corpus of acceptance criterion 7's shape (109 subjects x
60 s of 64-channel 160 Hz EDF, read through the common_56 policy at
128 Hz) in one process.  Then it runs `eegid ingest` on a cold cache and
`eegid features --band gamma --metric COR` on the cache that ingest wrote,
each in a fresh process that reports its own peak resident set (VmHWM in
/proc/self/status, which exec resets).  A parent's `ru_maxrss` would not
do: a child started by vfork and exec inherits its parent's high-water
mark.  Exits 1 if a command fails or either peak reaches --limit-mb.
Wall times are printed, not checked.  Needs Linux's /proc.

Example:
    PYTHONPATH=src python3 scripts/memory_probe.py
    PYTHONPATH=src python3 scripts/memory_probe.py --subjects 3 --seconds 10
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FS_HZ = 160
# 56 labels of the common_56 policy in the corpus's EDF spelling, plus 8 more
LABELS = (
    "Fc5.", "Fc3.", "Fc1.", "Fcz.", "Fc2.", "Fc4.", "Fc6.",
    "C5..", "C3..", "C1..", "Cz..", "C2..", "C4..", "C6..",
    "Cp5.", "Cp3.", "Cp1.", "Cpz.", "Cp2.", "Cp4.", "Cp6.",
    "Fp1.", "Fpz.", "Fp2.",
    "Af7.", "Af3.", "Afz.", "Af4.", "Af8.",
    "F7..", "F5..", "F3..", "F1..", "Fz..", "F2..", "F4..", "F6..", "F8..",
    "Ft7.", "Ft8.", "T7..", "T8..", "T9..", "T10.", "Tp7.", "Tp8.",
    "P7..", "P5..", "P3..", "P1..", "Pz..", "P2..", "P4..", "P6..", "P8..",
    "Po7.", "Po3.", "Poz.", "Po4.", "Po8.",
    "O1..", "Oz..", "O2..", "Iz..",
)


def _field(value, width):
    return str(value).ljust(width).encode("ascii")


def _edf(digital):
    """EDF bytes of a (channels, samples) int16 array in 1 s records."""
    n_ch, n_samples = digital.shape
    header = b"".join([_field(0, 8), _field("probe", 80), _field("probe", 80),
                       _field("01.01.20", 8), _field("00.00.00", 8),
                       _field(256 * (n_ch + 1), 8), _field("", 44),
                       _field(n_samples // FS_HZ, 8), _field(1, 8), _field(n_ch, 4)])
    for width, value in ((16, None), (80, ""), (8, "uV"), (8, -1000), (8, 1000),
                         (8, -32768), (8, 32767), (80, ""), (8, FS_HZ), (32, "")):
        header += b"".join(_field(LABELS[i] if value is None else value, width)
                           for i in range(n_ch))
    records = digital.reshape(n_ch, -1, FS_HZ).transpose(1, 0, 2)
    return header + records.astype("<i2").tobytes()


def write_inputs(root, subjects, seconds):
    """One EDF file per subject and a manifest over them, in `root`."""
    import numpy as np

    rng = np.random.default_rng(7)
    entries = []
    for s in range(1, subjects + 1):
        path = root / f"S{s:03d}.edf"
        path.write_bytes(_edf(rng.integers(-4000, 4000, (len(LABELS), FS_HZ * seconds),
                                           dtype=np.int16)))
        entries.append({"path": path.name, "format": "edf", "subject_id": f"S{s:03d}",
                        "dataset_id": "probe", "condition": "resting",
                        "window_s": [0.0, float(seconds)]})
    (root / "manifest.json").write_text(json.dumps(
        {"target_rate_hz": 128.0, "channel_policy": "common_56", "entries": entries}))


def run_command(argv):
    """Run one eegid command here; print its exit code, wall time and VmHWM."""
    from eegid import cli

    start = time.monotonic()
    code = cli.main(argv)
    wall = time.monotonic() - start
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(json.dumps({"exit": code, "wall_s": round(wall, 2), "vmhwm_mb": round(kib / 1024, 1)}))


def _child(*args):
    """Run this script in a fresh interpreter; its last stdout line."""
    done = subprocess.run([sys.executable, __file__, *args], stdout=subprocess.PIPE,
                          text=True, check=True)
    return done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=109)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--limit-mb", type=float, default=150.0)
    parser.add_argument("--work", help="directory for the inputs and cache "
                                       "(default: a temporary one, removed afterwards)")
    # the two steps that run in their own processes
    parser.add_argument("--write-inputs", help=argparse.SUPPRESS)
    parser.add_argument("--run", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_inputs:
        write_inputs(Path(args.write_inputs), args.subjects, args.seconds)
        return 0
    if args.run:
        run_command(args.run)
        return 0
    if not os.path.exists("/proc/self/status"):
        print("memory probe needs /proc/self/status (Linux)", file=sys.stderr)
        return 2
    work = Path(args.work or tempfile.mkdtemp(prefix="eegid-probe-"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        _child("--write-inputs", str(work), "--subjects", str(args.subjects),
               "--seconds", str(args.seconds))
        manifest, cache = str(work / "manifest.json"), str(work / "cache")
        shutil.rmtree(cache, ignore_errors=True)  # a cache left by an earlier probe
        failed = False
        for label, command in (
                ("cold ingest", ["ingest", "--manifest", manifest, "--out", cache]),
                ("warm features gamma COR",
                 ["features", "--manifest", manifest, "--cache", cache, "--band", "gamma",
                  "--metric", "COR", "--out", str(work / "features.csv")])):
            result = json.loads(_child("--run", *command))
            bad = result["exit"] != 0 or result["vmhwm_mb"] >= args.limit_mb
            failed |= bad
            print(f"{label}: exit {result['exit']}, VmHWM {result['vmhwm_mb']} MB "
                  f"(limit {args.limit_mb:g}), {result['wall_s']} s"
                  f"{' FAILED' if bad else ''}")
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{args.subjects} subjects x {args.seconds} s: "
          f"{'peak memory over the limit or a command failed' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

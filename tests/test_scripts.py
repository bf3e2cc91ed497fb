"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

from eegid.io_ingest import load_manifest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_make_physionet_manifest(tmp_path):
    for sid in ("S001", "S002"):
        (tmp_path / sid).mkdir()
        (tmp_path / sid / f"{sid}R01.edf").write_bytes(b"")
    done = _run_script("make_physionet_manifest.py", str(tmp_path), "--subjects", "2",
                       "--out", "manifest.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    manifest = load_manifest(tmp_path / "manifest.json")
    assert manifest["channel_policy"] == "common_56"
    assert manifest["target_rate_hz"] == 128.0
    assert [(e["subject_id"], e["format"], e["window_s"]) for e in manifest["entries"]] == [
        ("S001", "edf", [0.0, 60.0]), ("S002", "edf", [0.0, 60.0])]
    assert [Path(e["path"]) for e in manifest["entries"]] == [
        tmp_path / "S001" / "S001R01.edf", tmp_path / "S002" / "S002R01.edf"]


def test_memory_probe(tmp_path):
    done = _run_script("memory_probe.py", "--subjects", "3", "--seconds", "10", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["cold ingest",
                                                          "warm features gamma COR"]
    assert all(", VmHWM " in line and "FAILED" not in line for line in lines[:2])
    assert lines[-1] == "3 subjects x 10 s: ok"
    # no interpreter with numpy stays under 1 MB
    done = _run_script("memory_probe.py", "--subjects", "2", "--seconds", "10",
                       "--limit-mb", "1", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stdout.count("FAILED") == 2

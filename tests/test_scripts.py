"""Smoke tests: the example scripts run to completion and report every
identity as holding."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    return proc.stdout


def test_e8_identities_script():
    out = run_script("e8_identities.py", "--order", "2")
    assert " 4 | 3/896" in out
    checks = [l for l in out.splitlines() if l.startswith("  degree-(")]
    assert len(checks) == 9
    assert all(l.endswith(": ok") for l in checks)


def test_isospectral_demo_script():
    out = run_script("isospectral_demo.py", "--order", "1")
    assert "e8e8: enumerated to norm 1" in out
    for claim in ("theta series equal through q^1: True",
                  "degree-(1,1) invariant equal through q^1: True",
                  "degree-(1,1) invariant vanishes identically: True"):
        assert claim in out

"""Run every demo and pin the bytes it prints, one short sha256 per demo.

Each demo runs in a fresh interpreter with ``src`` on the path.  It must
exit 0, and the sha256 of its stdout must match its line in
``demo_bytes.sha256`` next to this file; a change to a demo's output fails
the test of that demo.

Check, or regenerate the digest file after an intended output change::

    python tests/test_demos.py
    python tests/test_demos.py --write
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import digests
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DIGESTS = Path(__file__).with_name("demo_bytes.sha256")


def run(demo: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        timeout=120,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    out = run(demo)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.strip()
    want = digests.read(DIGESTS).get(demo.name)
    assert digest(out.stdout) == want, f"{demo.name} prints other bytes"


def test_every_demo_has_one_digest():
    assert sorted(digests.read(DIGESTS)) == [d.name for d in DEMOS]


def compute() -> dict:
    got = {}
    for demo in DEMOS:
        out = run(demo)
        if out.returncode != 0:
            raise SystemExit(f"{demo.name} exited {out.returncode}:\n{out.stderr.decode()}")
        got[demo.name] = digest(out.stdout)
    return got


if __name__ == "__main__":
    digests.main(DIGESTS, compute)

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


def read_digests() -> dict:
    pairs = (row.split("  ", 1) for row in DIGESTS.read_text().splitlines())
    return {name: d for d, name in pairs}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    out = run(demo)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.strip()
    assert digest(out.stdout) == read_digests().get(demo.name), f"{demo.name} prints other bytes"


def test_every_demo_has_one_digest():
    assert sorted(read_digests()) == [d.name for d in DEMOS]


if __name__ == "__main__":
    got = {}
    for demo in DEMOS:
        out = run(demo)
        if out.returncode != 0:
            raise SystemExit(f"{demo.name} exited {out.returncode}:\n{out.stderr.decode()}")
        got[demo.name] = digest(out.stdout)
    if sys.argv[1:] == ["--write"]:
        DIGESTS.write_text("".join(f"{d}  {name}\n" for name, d in got.items()))
        print(f"wrote {len(got)} digests to {DIGESTS}")
    else:
        want = read_digests()
        changed = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
        print("\n".join(changed + [f"{len(got) - len(changed)}/{len(got)} digests match"]))
        raise SystemExit(1 if changed else 0)

"""Pin the bytes the CLI prints, one short sha256 per command line.

Every start line runs with every method line in every format; each
golden suite runs alone, all three run together as CI runs them, and an
unknown name after a known one runs none.  A digest covers the exit code, stdout and
stderr of ``fpaccel.cli.main`` run in-process.  The digests live in
``cli_bytes.sha256`` next to this file; a change to the CLI's output
fails the test with every command line whose bytes moved.

Check, or regenerate the digest file after an intended output change::

    PYTHONPATH=src python tests/test_cli_bytes.py
    PYTHONPATH=src python tests/test_cli_bytes.py --write
"""

import hashlib
import io
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import digests

from fpaccel.cli import main

DIGESTS = Path(__file__).with_name("cli_bytes.sha256")

STARTS = (
    "--problem sin",
    "--problem sin --x0 0.3 --x0-im 0.1",
    "--problem sin --x0 1.2e154 --x0-im 0.6e154",
    "--problem logistic --param a=1",
    "--problem logistic --param a=1 --x0 0.3 --x0-im 0.1",
    "--problem fdil",
    "--problem fdil --x0 0.5",
    "--problem fdil --x0 0.9",
    "--problem kvb_complex",
    "--problem kvb_complex --x0-im -0.3",
    "--problem kvb_complex --x0 1e308 --x0-im 1e308",
    "--problem s_family --param alphas=1,0.5 --param r=1",
    "--problem power_family --param alpha=1 --param r=3",
)

_EACH = (
    "plain",
    "first_newton",
    "standard",
    "phi",
    "steffensen",
    "integral:2",
    "compose:standard:2",
    "aitken",
    "theta2",
    "w_transform",
    "iterated_aitken:2",
)
METHOD_LINES = (
    *(f"--method {m}" for m in _EACH),
    " ".join(f"--method {m}" for m in _EACH),
    "--method plain --method standard --method aitken --max-iter 300",
    "--method plain --method aitken --method theta2 --method iterated_aitken:3 --max-iter 2000",
    "--method iterated_aitken:50 --max-iter 5",
)
FORMATS = ("markdown", "csv", "json")
SUITES = (
    "--suite table1",
    "--suite table2",
    "--suite table3",
    "--suite table1 --suite table2 --suite table3",
    "--suite table1 --suite table9",
)


def command_lines():
    for start in STARTS:
        for methods in METHOD_LINES:
            for fmt in FORMATS:
                yield f"{start} {methods} --format {fmt}"
    yield from SUITES


def digest(line: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(shlex.split(line))
    text = f"{rc}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compute() -> dict:
    return {line: digest(line) for line in command_lines()}


def test_cli_bytes_match_digests():
    changed = digests.changed(digests.read(DIGESTS), compute())
    assert not changed, "CLI bytes changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    digests.main(DIGESTS, compute)

"""Digest files: one short sha256 per named output, ``<digest>  <name>`` a line.

``test_cli_bytes.py`` and ``test_demos.py`` pin their outputs through
these files.  Run either test module as a script to check its digest file,
or with ``--write`` to regenerate it after an intended output change.
"""

import sys


def read(path) -> dict:
    """The ``{name: digest}`` pairs in the digest file at ``path``."""
    pairs = (row.split("  ", 1) for row in path.read_text().splitlines())
    return {name: d for d, name in pairs}


def changed(want: dict, got: dict) -> list:
    """The sorted names whose digest differs, or that only one side has."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def main(path, compute) -> None:
    """Check ``compute()`` against the file at ``path``, or rewrite it with ``--write``."""
    got = compute()
    if sys.argv[1:] == ["--write"]:
        path.write_text("".join(f"{d}  {name}\n" for name, d in got.items()))
        print(f"wrote {len(got)} digests to {path}")
    else:
        diff = changed(read(path), got)
        print("\n".join(diff + [f"{len(got) - len(diff)}/{len(got)} digests match"]))
        raise SystemExit(1 if diff else 0)

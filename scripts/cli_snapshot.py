#!/usr/bin/env python3
"""Write the CLI's full-precision output for the strawberry fixture to DIR.

For each link (po, acl, crl) and random-effect flag (none, one, two) it
writes ``fit-<link>-<re>.json`` and ``gof-<link>-<re>.json``, the output of
``ordmixed fit`` and ``ordmixed gof`` with ``--format json``, plus
``simulate-po.json``, the JSON output of ``ordmixed simulate --link po
--replications 20`` fitting seven models (every link homogeneous and
univariate, and PO bivariate), so study summaries are compared at full
precision. Run it on two checkouts and compare them with ``diff -r``:

    PYTHONPATH=src python scripts/cli_snapshot.py /tmp/after
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

from ordmixed.cli import main as cli

LINKS = ("po", "acl", "crl")
RANDOM_EFFECTS = ("none", "one", "two")
STUDY_FITS = ("po:none", "po:one", "po:two", "acl:none", "acl:one", "crl:none", "crl:one")


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(argv)
    if code != 0:
        raise SystemExit(f"ordmixed {' '.join(argv)} exited with {code}")
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", type=Path, help="where to write the outputs")
    args = parser.parse_args(argv)
    args.directory.mkdir(parents=True, exist_ok=True)
    for command in ("fit", "gof"):
        for link in LINKS:
            for re_flag in RANDOM_EFFECTS:
                text = _run([command, "--link", link, "--random-effects", re_flag, "--format", "json"])
                (args.directory / f"{command}-{link}-{re_flag}.json").write_text(text)
    fits = [arg for spec in STUDY_FITS for arg in ("--fit", spec)]
    text = _run(["simulate", "--link", "po", "--replications", "20", *fits, "--format", "json"])
    (args.directory / "simulate-po.json").write_text(text)
    print(f"wrote {2 * len(LINKS) * len(RANDOM_EFFECTS) + 1} files to {args.directory}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

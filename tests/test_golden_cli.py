"""Golden CLI contract: exit code, exact stdout and exact stderr of a fixed
set of invocations covering every subcommand, the help texts, a transform
pipeline, --perturb, CSV output, sampler rejection and error exits.

Expected outputs live in data/golden_cli.json.  After an intended output
change, re-record the affected entries by name:

    PYTHONPATH=src python tests/test_golden_cli.py NAME [NAME ...]
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from cybe.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "golden_cli.json"
CASES = json.loads(DATA.read_text(encoding="utf-8"))["cases"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert run(case["argv"]) == (case["exit"], case["stdout"],
                                 case["stderr"])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    names = set(sys.argv[1:])
    unknown = names - {c["name"] for c in CASES}
    if unknown:
        sys.exit(f"unknown case(s): {sorted(unknown)}")
    for case in CASES:
        if case["name"] in names:
            case["exit"], case["stdout"], case["stderr"] = run(case["argv"])
    DATA.write_text(json.dumps({"cases": CASES}, indent=1) + "\n",
                    encoding="utf-8")

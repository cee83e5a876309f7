"""Golden CLI contract: exit code, exact stdout and exact stderr of a fixed
set of invocations covering every subcommand, the help texts, a transform
pipeline, --perturb, CSV output, sampler rejection and error exits.

Expected outputs live in data/golden_cli.json.  After an intended output
change, re-record the affected entries by name:

    PYTHONPATH=src python tests/test_golden_cli.py NAME [NAME ...]

The verify and classify entries are also replayed under other OpenBLAS
kernels: no printed number may depend on the BLAS build.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cybe
from cybe.cli import main

from conftest import outermost_calls

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


def test_scalar_eval_only_names_errors(monkeypatch):
    """The scalar ``WeightFamily.eval`` runs only to name the error of a
    point an array call marked: no case that exits 0 or 1 calls it, and a
    grid of ``eval`` or ``transform`` is one ``eval_array`` call."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = outermost_calls(monkeypatch)
    made = {}
    for case in CASES:
        before = dict(calls)
        code = run(case["argv"])[0]
        made[case["name"]] = (code, calls["eval"] - before["eval"],
                              calls["eval_array"] - before["eval_array"])
    assert [name for name, (code, n, _) in made.items()
            if code in (0, 1) and n] == []
    assert {made[c["name"]][2] for c in CASES if c["exit"] == 0
            and c["argv"][0] in ("eval", "transform")
            and "--help" not in c["argv"]} == {1}
    assert made["error_pole"] == (3, 1, 1)


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels at run
    time, so OPENBLAS_CORETYPE selects them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


_NUMERIC = [c for c in CASES if c["argv"][0] in ("verify", "classify")]

_REPLAY = f"""
import json, sys
sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})
from test_golden_cli import _NUMERIC, run
print(json.dumps([run(c["argv"]) for c in _NUMERIC]))
"""


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_golden_bytes_do_not_depend_on_the_blas_kernel(coretype):
    """Prescott has no AVX and Haswell fuses multiply-adds: a product left
    to BLAS rounds differently under each."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(pathlib.Path(cybe.__file__).parents[1]),
                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _REPLAY], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    differ = [c["name"] for c, g in zip(_NUMERIC, got)
              if tuple(g) != (c["exit"], c["stdout"], c["stderr"])]
    assert differ == []


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

"""Output checks for the benchmark's ops.

Each check returns ``(failure, wrong)``: ``failure`` is None when the op
passed every check, else a one-line reason; ``wrong`` is True when the
reason is a wrong answer (exit code, verdict, pass flag, residual or
matrix oracle) rather than a malformed output.  Every failure counts
against the op; a failed op is never retried or dropped.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def parse_strict(text: str):
    """Parse JSON as RFC 8259 defines it: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def check(expect: dict, code, stdout: str) -> tuple[str | None, bool]:
    """Check one op's exit code and stdout against its expected outcome."""
    kind = expect["kind"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}", True
    want_code = {"verify": 0 if expect.get("pass") else 1,
                 "classify": expect.get("exit"),
                 "couplings": 0}[kind]
    if code != want_code:
        return f"exit code {code!r}, expected {want_code}", True
    checker = {"verify": _check_verify, "classify": _check_classify,
               "couplings": _check_couplings}[kind]
    try:
        reason = checker(expect, doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        reason = f"unexpected output structure: {exc!r}"
    if reason is not None:
        return reason, True
    try:
        parse_strict(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}", False
    return None, False


def _check_verify(expect: dict, doc: dict) -> str | None:
    if doc.get("pass") is not expect["pass"]:
        return f"pass = {doc.get('pass')!r}, expected {expect['pass']}"
    median = doc["relative_residual"]["median"]
    if expect["pass"] and not median <= expect["tol"]:
        return f"median residual {median!r} above tolerance {expect['tol']}"
    if not expect["pass"] and not median > expect["tol"]:
        return f"perturbed family has median residual {median!r}"
    return None


def _check_classify(expect: dict, doc: dict) -> str | None:
    if doc.get("verdict") != expect["verdict"]:
        return f"verdict {doc.get('verdict')!r}, expected {expect['verdict']}"
    return None


def _couplings(doc: dict) -> dict[str, complex]:
    return {k: complex(v[0], v[1]) for k, v in doc["couplings"].items()}


def degrees(n: int, periodic: bool) -> list[int]:
    """Bond count of every site of an n-site chain."""
    if periodic:
        return [2] * n
    return [1] + [2] * (n - 2) + [1]


def frobenius_sq(c: dict[str, complex], n: int, periodic: bool) -> float:
    """||H||_F^2 from the couplings alone.  The Pauli strings X_aX_b, Y_aY_b,
    Z_aZ_b and Z_j are orthogonal with squared norm 2^n, so
    ||H||^2 = 2^n [B (|Jx|^2+|Jy|^2+|Jz|^2) + |h|^2 sum_j (d_j/2)^2]
    for B bonds and site degrees d_j (valid for n >= 3)."""
    bonds = n if periodic else n - 1
    field = sum((d / 2) ** 2 for d in degrees(n, periodic))
    return 2.0 ** n * (bonds * (abs(c["jx"]) ** 2 + abs(c["jy"]) ** 2
                                + abs(c["jz"]) ** 2)
                       + abs(c["h"]) ** 2 * field)


def check_matrix(H: np.ndarray, c: dict[str, complex], n: int,
                 periodic: bool, real: bool) -> str | None:
    """Independent oracle for a dumped chain Hamiltonian."""
    if H.shape != (2 ** n, 2 ** n):
        return f"matrix shape {H.shape}, expected {(2 ** n, 2 ** n)}"
    norm_sq = frobenius_sq(c, n, periodic)
    scale = math.sqrt(norm_sq) + 1e-300
    trace = complex(np.trace(H))
    if abs(trace) > 1e-10 * scale:
        return f"tr H = {trace!r}, expected 0"
    got = float(np.vdot(H, H).real)
    if abs(got - norm_sq) > 1e-10 * norm_sq:
        return f"||H||_F^2 = {got!r}, couplings give {norm_sq!r}"
    if real and float(np.abs(H - H.conj().T).max()) > 1e-12:
        return "dumped matrix is not Hermitian"
    return None


def _check_couplings(expect: dict, doc: dict) -> str | None:
    n, periodic = expect["sites"], expect["periodic"]
    if doc.get("sites") != n or doc.get("periodic") is not periodic:
        return "sites/periodic not echoed"
    c = _couplings(doc)
    real = all(v.imag == 0 for v in c.values())
    defect = doc["hermiticity_defect"]
    if real and not defect <= 1e-12:
        return f"hermiticity defect {defect!r} for real couplings"
    path = expect["matrix"]
    if path is None:
        return None
    if doc.get("matrix_file") != path:
        return f"matrix_file {doc.get('matrix_file')!r}, expected {path!r}"
    try:
        H = np.load(path)
    except (OSError, ValueError) as exc:
        return f"cannot read dumped matrix: {exc}"
    finally:
        if os.path.exists(path):
            os.remove(path)
    return check_matrix(H, c, n, periodic, real)

"""Spin-chain couplings from the spectral-derivative coefficients, and the
nearest-neighbour chain Hamiltonian

    H = sum_j  Jx X_j X_{j+1} + Jy Y_j Y_{j+1} + Jz Z_j Z_{j+1}
             + h/2 (Z_j + Z_{j+1})

with Jx = (m5+m6+m7+m8)/4, Jy = (m5+m6-m7-m8)/4, Jz = (m1-m3+m4-m2)/4 and
h = (m1+m2-m3-m4)/2.  On a gauge family (m2 = m3 = 0, m7 = m8), R'(0) =
to_matrix(m) puts (m1-m4)/4 Z on each end of a bond, so each site of a
periodic chain carries the field h = (m1-m4)/2, and H is the regular
Hamiltonian sum_j R'_{j,j+1}(0) without two terms: its identity part and
the antisymmetric (m5-m6)(XY-YX)/4i, which for free fermions is the
current operator and commutes with the transfer matrix on its own.

Site 1 is the slowest tensor index.  The chain is stored as its bonds in
O(n 2^n): ZZ and field on the diagonal, and per bond the XX + YY
amplitudes of one bit flip.  The dense matrix, 16 4^n bytes, is built
only when ``ChainOperator.matrix`` is read, as a matrix dump does.
"""

from __future__ import annotations

import functools
import gzip
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimit

MAX_SITES = 12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class CouplingConstants:
    jx: complex
    jy: complex
    jz: complex
    h: complex

    def to_json(self) -> dict:
        return {k: [v.real, v.imag] for k, v in
                (("jx", self.jx), ("jy", self.jy), ("jz", self.jz),
                 ("h", self.h))}


@dataclass(frozen=True)
class ChainOperator:
    """H as its diagonal and, per bond, the mask of the two bits its XX + YY
    flips with the amplitude of each flip: H[idx ^ mask, idx] = amplitudes."""

    n: int
    periodic: bool
    diag: np.ndarray
    bonds: tuple[tuple[int, np.ndarray], ...]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense 2^n x 2^n matrix, built on first access."""
        dim = 2 ** self.n
        idx = np.arange(dim)
        H = np.zeros((dim, dim), dtype=complex)
        for mask, amplitudes in self.bonds:
            H[idx ^ mask, idx] += amplitudes
        H.reshape(-1)[::dim + 1] = self.diag
        return H

    def hermiticity_defect(self) -> float:
        """max |H - H^H|: on the diagonal, and on each bit flip, where bonds
        that flip the same bits (n = 2, periodic) add up."""
        flips = {}
        for mask, amplitudes in self.bonds:
            flips[mask] = flips.get(mask, 0) + amplitudes
        idx = np.arange(len(self.diag))
        return float(np.max([np.abs(self.diag - self.diag.conj()).max()] + [
            np.abs(v - v[idx ^ mask].conj()).max()
            for mask, v in flips.items()]))


def couplings_from_coeffs(m) -> CouplingConstants:
    """The four linear combinations of m1..m8 (array-like of 8)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (8,):
        raise ValueError("need the eight coefficients m1..m8")
    m1, m2, m3, m4, m5, m6, m7, m8 = m
    return CouplingConstants(
        jx=(m5 + m6 + m7 + m8) / 4,
        jy=(m5 + m6 - m7 - m8) / 4,
        jz=(m1 - m3 + m4 - m2) / 4,
        h=(m1 - m3 - m4 + m2) / 2,
    )


def build_chain(c: CouplingConstants, n: int, periodic: bool = False
                ) -> ChainOperator:
    """The chain Hamiltonian by bonds; Hermitian for real couplings.
    With z_j = 1 - 2 bit_j, XX + YY of bond (a, b) sends idx to
    idx ^ mask_ab with amplitude Jx - Jy z_a z_b."""
    if not 2 <= n <= MAX_SITES:
        raise SizeLimit(f"site count {n} outside [2, {MAX_SITES}]")
    dim = 2 ** n
    idx = np.arange(dim)
    bit = 1 << np.arange(n - 1, -1, -1)
    z = 1 - 2 * ((idx & bit[:, None]) != 0)
    diag = np.zeros(dim, dtype=complex)
    bonds = []
    # bond by bond, ZZ then field: the roundings of the plain sum of Pauli
    # products, to which the matrix is bitwise equal for n > 2
    for a, b in [(j, (j + 1) % n) for j in range(n if periodic else n - 1)]:
        zz = z[a] * z[b]
        bonds.append((int(bit[a] | bit[b]), c.jx - c.jy * zz))
        diag += c.jz * zz
        diag += 0.5 * c.h * (z[a] + z[b])
    return ChainOperator(n=n, periodic=periodic, diag=diag,
                         bonds=tuple(bonds))


def cyclic_shift(n: int) -> np.ndarray:
    """One-site cyclic shift operator on n sites (site 1 slowest index)."""
    dim = 2 ** n
    b = np.arange(dim)
    S = np.zeros((dim, dim), dtype=complex)
    S[((b << 1) & (dim - 1)) | (b >> (n - 1)), b] = 1.0
    return S


def ff_relation_check(c: CouplingConstants, m, tol: float = 1e-8) -> dict:
    """Diagnostics for the special free-fermion-in-field corner:
    whether Jx + Jy = h and Jz = 0, and whether m5 = m1 - m3 = -m4 + m2."""
    m = np.asarray(m, dtype=complex)
    m1, m2, m3, m4, m5 = m[0], m[1], m[2], m[3], m[4]
    r_sum = abs(c.jx + c.jy - c.h)
    r_jz = abs(c.jz)
    r_m_a = abs(m5 - (m1 - m3))
    r_m_b = abs(m5 - (-m4 + m2))
    return {
        "jx_plus_jy_equals_h": bool(r_sum <= tol),
        "jz_zero": bool(r_jz <= tol),
        "m5_equals_m1_minus_m3": bool(r_m_a <= tol),
        "m5_equals_m2_minus_m4": bool(r_m_b <= tol),
        "residuals": {
            "jx_plus_jy_minus_h": float(r_sum),
            "jz": float(r_jz),
            "m5_minus_m1_plus_m3": float(r_m_a),
            "m5_plus_m4_minus_m2": float(r_m_b),
        },
    }


#: matrix rows per formatted block of the CSV export
_CSV_ROWS = 256


def _csv_rows(cols: np.ndarray) -> bytes:
    """The bytes ``np.savetxt(fh, cols, delimiter=",")`` writes: each row
    as '%.18e' fields.  A chain matrix holds few distinct values, so each
    distinct bit pattern is formatted once and the rows are joined."""
    keys, inverse = np.unique(cols.view(np.int64).ravel(), return_inverse=True)
    text = np.array(["%.18e" % v for v in keys.view(np.float64).tolist()],
                    dtype=object)[inverse].reshape(cols.shape)
    return "".join([",".join(row) + "\n" for row in text]).encode("latin1")


def export_matrix(op: ChainOperator, path: str, fmt: str = "npy") -> None:
    """Dense dump; 'npy' binary or 'csv' with re/im column pairs, in the
    format of ``np.savetxt``.  The CSV is written in blocks of
    ``_CSV_ROWS`` rows, so its float re/im copy stays small at any size."""
    if fmt == "npy":
        np.save(path, op.matrix)
    elif fmt == "csv":
        dim = op.matrix.shape[0]
        # a .gz path is gzipped, as np.savetxt does for file names
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "wb") as fh:
            for start in range(0, dim, _CSV_ROWS):
                block = op.matrix[start:start + _CSV_ROWS]
                cols = np.empty((len(block), 2 * dim))
                cols[:, 0::2] = block.real
                cols[:, 1::2] = block.imag
                fh.write(_csv_rows(cols))
    else:
        raise ValueError(f"unknown export format {fmt!r}")

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

Site 1 is the slowest tensor index.  The chain is stored as one table of
its nonzeros in O(n 2^n): ZZ and field on the diagonal, and per bond the
XX + YY amplitude of a bit-pair flip, the same from both ends.  So H is
complex symmetric: the table is read both ways, with no mirror copy, and
max |H - H^H| is twice its largest |Im|.  A matrix dump streams the dense
matrix in row blocks of at most 64 KiB; the whole matrix, 16 4^n bytes,
is built only when ``ChainOperator.matrix`` is read.
"""

from __future__ import annotations

import functools
import gzip
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, SizeLimit

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
    """H by its nonzeros: H[r, r ^ masks[k]] = values[k, r] for each k.
    masks[0] = 0 holds the diagonal; the others are the bit pairs that the
    bonds' XX + YY flip, with the amplitudes of bonds that flip the same
    bits (n = 2, periodic) added.  Each row of values takes the same value
    at r and r ^ masks[k], so H = H^T and the table is also its columns."""

    n: int
    periodic: bool
    masks: np.ndarray
    values: np.ndarray

    @property
    def diag(self) -> np.ndarray:
        return self.values[0]

    def row_blocks(self, rows: int):
        """The dense matrix in blocks of ``rows`` rows, each written into
        the same buffer, which the next block overwrites."""
        dim = 2 ** self.n
        buf = np.empty((min(rows, dim), dim), dtype=complex)
        local = np.arange(len(buf))
        for start in range(0, dim, len(buf)):
            block = buf[:dim - start]
            block.fill(0)
            span = slice(start, start + len(block))
            cols = np.arange(start, span.stop) ^ self.masks[:, None]
            block[local[:len(block)], cols] = self.values[:, span]
            yield block

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense 2^n x 2^n matrix, built on first access: the one block
        of all rows."""
        return next(self.row_blocks(2 ** self.n))

    def hermiticity_defect(self) -> float:
        """max |H - H^H| from the table alone: as H = H^T, H - H^H is
        2i Im H."""
        return float(2 * np.abs(self.values.imag).max())


def couplings_from_coeffs(m) -> CouplingConstants:
    """The four linear combinations of m1..m8 (array-like of 8)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (8,):
        raise InvalidSpec("need the eight coefficients m1..m8")
    m1, m2, m3, m4, m5, m6, m7, m8 = m
    return CouplingConstants(
        jx=(m5 + m6 + m7 + m8) / 4,
        jy=(m5 + m6 - m7 - m8) / 4,
        jz=(m1 - m3 + m4 - m2) / 4,
        h=(m1 - m3 - m4 + m2) / 2,
    )


def build_chain(c: CouplingConstants, n: int, periodic: bool = False
                ) -> ChainOperator:
    """The chain Hamiltonian by bonds; Hermitian for real couplings, and
    complex symmetric for any.  With z_j = 1 - 2 bit_j, XX + YY of bond
    (a, b) sends idx to idx ^ mask_ab with amplitude Jx - Jy z_a z_b, the
    same from both ends of the flip."""
    if not 2 <= n <= MAX_SITES:
        raise SizeLimit(f"site count {n} outside [2, {MAX_SITES}]")
    dim = 2 ** n
    bit = 1 << np.arange(n - 1, -1, -1)
    # int8 spins: the products of +-1 are exact and the bond rows small
    z = 1 - 2 * ((np.arange(dim) & bit[:, None]) != 0).astype(np.int8)
    a = np.arange(n if periodic else n - 1)
    b = (a + 1) % n
    zz = z[a] * z[b]
    values = np.zeros((1 + len(a), dim), dtype=complex)
    # per bond, the diagonal gains ZZ then field: the roundings of the plain
    # sum of Pauli products, to which the matrix is bitwise equal for n > 2;
    # the amplitude goes onto zeros, as the dense sum adds it: -0 reads +0
    for k, (zz_k, za, zb) in enumerate(zip(zz, z[a], z[b]), 1):
        values[0] += c.jz * zz_k
        values[0] += 0.5 * c.h * (za + zb)
        values[k] += c.jx - c.jy * zz_k
    masks = np.concatenate([[0], bit[a] | bit[b]])
    if n == 2 and periodic:
        # both bonds of a two-site ring flip the same two bits
        values, masks = np.stack([values[0], values[1] + values[2]]), masks[:2]
    return ChainOperator(n=n, periodic=periodic, masks=masks, values=values)


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


#: most bytes of one row block of a dump: below glibc's 128 KiB mmap
#: threshold, so the block buffer takes no fresh pages
_BLOCK_BYTES = 1 << 16


def _csv_rows(cols: np.ndarray) -> bytes:
    """The bytes ``np.savetxt(fh, cols, delimiter=",")`` writes: each row
    as '%.18e' fields.  A chain matrix holds few distinct values, so each
    distinct bit pattern is formatted once and the rows are joined."""
    keys, inverse = np.unique(cols.view(np.int64).ravel(), return_inverse=True)
    text = np.array(["%.18e" % v for v in keys.view(np.float64).tolist()],
                    dtype=object)[inverse].reshape(cols.shape)
    return "".join([",".join(row) + "\n" for row in text]).encode("latin1")


def export_matrix(op: ChainOperator, path: str, fmt: str = "npy") -> str:
    """Dense dump; 'npy' binary, in the bytes of ``np.save``, or 'csv' with
    re/im column pairs, in the format of ``np.savetxt``.  Both stream the
    matrix in row blocks of at most ``_BLOCK_BYTES``, so no dense copy
    exists at any size.  Returns the path written: as np.save does, an
    'npy' path without the .npy suffix gets it."""
    if fmt not in ("npy", "csv"):
        raise InvalidSpec(f"unknown export format {fmt!r}")
    dim = 2 ** op.n
    blocks = op.row_blocks(max(1, _BLOCK_BYTES // (16 * dim)))
    path = str(path)
    if fmt == "npy":
        if not path.endswith(".npy"):
            path += ".npy"
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(complex)),
                "fortran_order": False, "shape": (dim, dim)})
            for block in blocks:
                fh.write(block)
    else:
        # a .gz path is gzipped, as np.savetxt does for file names
        with (gzip.open if path.endswith(".gz") else open)(path, "wb") as fh:
            for block in blocks:
                fh.write(_csv_rows(block.view(np.float64)))
    return path

"""End-to-end integrability: weights -> m_i -> couplings -> chain.

A regular R (R(0) = E, so that R~ = R P is the permutation at 0) gives
commuting transfer matrices t(w, xi) = tr_0 R~_0n ... R~_01 on a chain of
sites of one color theta, and the Hamiltonian H_R' = sum_j R'_{j,j+1}(0),
with R'(0) = to_matrix(m) and m from hamiltonian_coeffs at theta, commutes
with every t (Faddeev, hep-th/9605187).  The oracle H_R' is built from the
4x4 matrix of m alone; ``couplings_from_coeffs`` and ``build_chain`` must
reproduce it on the gauge families, up to two terms the chain form does
not carry: the identity and the antisymmetric part of the (m5, m6) pair,
which on a free-fermion chain is the current operator and commutes with t
on its own.  ``trivial_b`` is not regular and is left out of the
Hamiltonian checks.
"""

import numpy as np
import pytest

from cybe import (CouplingConstants, FamilyId, build_chain,
                  couplings_from_coeffs, hamiltonian_coeffs, make_family,
                  to_matrix)
from cybe.families import GAUGE_FAMILIES
from cybe.weights import WeightVector

from conftest import CANONICAL_SPECS, ff_hyperbolic_spec
from test_spinchain import _free_fermion_spectrum

THETA = 0.13                                 # the color of every site
POINTS = ((0.21, 0.05), (-0.17, -0.08))      # (w, xi) of two transfer matrices
SIZES = range(3, 7)
TOL = 1e-12

_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_ALL = list(CANONICAL_SPECS)
_GAUGE = [f for f in _ALL if f in GAUGE_FAMILIES]
_FREE_FERMION = [f for f in _GAUGE if f.value.startswith("ff_")]


def _two_site(A, a, b, n):
    """The 4x4 matrix A on sites (a, b) of n sites, a its slower index."""
    dim = 2 ** n
    ket = np.moveaxis(np.eye(dim, dtype=complex).reshape([2] * n + [dim]),
                      (a, b), (0, 1))
    out = np.tensordot(A.reshape(2, 2, 2, 2), ket, axes=([2, 3], [0, 1]))
    return np.moveaxis(out, (0, 1), (a, b)).reshape(dim, dim)


def _transfer(fam, w, xi, n):
    """t(w, xi) = tr_0 R~_0n ... R~_01, the auxiliary space 0 slowest."""
    R = to_matrix(fam.eval(w, xi, THETA)) @ _SWAP
    T = np.eye(2 ** (n + 1), dtype=complex)
    for j in range(1, n + 1):
        T = _two_site(R, 0, j, n + 1) @ T
    return np.trace(T.reshape(2, 2 ** n, 2, 2 ** n), axis1=0, axis2=2)


def _commutator(A, B):
    """max |[A, B]| relative to max |A| max |B|."""
    return np.abs(A @ B - B @ A).max() / (np.abs(A).max() * np.abs(B).max())


def _coeffs(fid):
    return hamiltonian_coeffs(make_family(CANONICAL_SPECS[fid]()),
                              np.array([THETA])).m[0]


def _bond_terms(m):
    """The 4x4 part of R'(0) the chain carries, and the antisymmetric
    (m5, m6) part it drops; the identity part is dropped too."""
    dropped = np.zeros((4, 4), dtype=complex)
    dropped[1, 2], dropped[2, 1] = (m[4] - m[5]) / 2, (m[5] - m[4]) / 2
    identity = m[:4].sum() / 4 * np.eye(4)
    return to_matrix(WeightVector(m)) - dropped - identity, dropped


def _bonds(A, n, periodic):
    return sum(_two_site(A, j, (j + 1) % n, n)
               for j in range(n if periodic else n - 1))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fid", _ALL, ids=lambda f: f.value)
def test_transfer_matrices_commute(fid, n):
    fam = make_family(CANONICAL_SPECS[fid]())
    t1, t2 = (_transfer(fam, w, xi, n) for w, xi in POINTS)
    assert _commutator(t1, t2) <= TOL


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fid", _GAUGE, ids=lambda f: f.value)
def test_regular_hamiltonian_commutes_with_transfer(fid, n):
    fam = make_family(CANONICAL_SPECS[fid]())
    H = _bonds(to_matrix(WeightVector(_coeffs(fid))), n, periodic=True)
    for w, xi in POINTS:
        assert _commutator(H, _transfer(fam, w, xi, n)) <= TOL


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fid", _GAUGE, ids=lambda f: f.value)
def test_chain_is_the_regular_hamiltonian(fid, n, periodic):
    """build_chain(couplings_from_coeffs(m)) is H_R' without its identity
    and antisymmetric (m5, m6) parts; each site's field is (m1 - m4)/2 on
    a periodic chain and (m1 - m4)/4 at the ends of an open one."""
    m = _coeffs(fid)
    kept, _ = _bond_terms(m)
    want = _bonds(kept, n, periodic)
    got = build_chain(couplings_from_coeffs(m), n, periodic).matrix
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fid", _GAUGE, ids=lambda f: f.value)
def test_chain_commutes_with_transfer(fid, n):
    fam = make_family(CANONICAL_SPECS[fid]())
    H = build_chain(couplings_from_coeffs(_coeffs(fid)), n, True).matrix
    for w, xi in POINTS:
        assert _commutator(H, _transfer(fam, w, xi, n)) <= TOL


@pytest.mark.parametrize("n", SIZES)
def test_dropped_current_commutes_with_transfer(n):
    """On ff_hyperbolic m5 = -m6, so the term the chain drops is not zero;
    it commutes with t on its own."""
    fam = make_family(ff_hyperbolic_spec())
    _, dropped = _bond_terms(_coeffs(FamilyId.FF_HYPERBOLIC))
    assert np.abs(dropped).max() > 0.1
    D = _bonds(dropped, n, periodic=True)
    for w, xi in POINTS:
        assert _commutator(D, _transfer(fam, w, xi, n)) <= TOL


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fid", _FREE_FERMION, ids=lambda f: f.value)
def test_free_fermion_chain_spectrum(fid, n):
    """Each ff_* chain has Jz = 0: an XY chain in a field, whose levels
    the Jordan-Wigner oracle gives from the couplings; the oracle's
    operator is H_R' (open) without the terms the chain drops."""
    m = _coeffs(fid)
    c = couplings_from_coeffs(m)
    assert abs(c.jz) <= 1e-12 and np.abs(m.imag).max() == 0
    kept, _ = _bond_terms(m)
    ev = np.linalg.eigvalsh(_bonds(kept, n, periodic=False))
    want = _free_fermion_spectrum(
        CouplingConstants(c.jx.real, c.jy.real, 0.0, c.h.real), n)
    assert np.abs(ev - want).max() <= 1e-10 * np.abs(ev).max()

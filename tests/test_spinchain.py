"""Coupling-constant algebra and the dense chain Hamiltonian."""

import gzip
import io
import itertools
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cybe import (CouplingConstants, SizeLimit, build_chain,
                  couplings_from_coeffs, cyclic_shift, ff_relation_check,
                  hamiltonian_coeffs, make_family, spec_to_json)
from cybe.spinchain import (MAX_SITES, SIGMA_X, SIGMA_Y, SIGMA_Z,
                            export_matrix)

from conftest import baxter_elliptic_spec, ff_hyperbolic_spec, ff_trig_spec


def _site_op(op, site, n):
    mats = [op if j == site else np.eye(2, dtype=complex) for j in range(n)]
    out = mats[0]
    for mat in mats[1:]:
        out = np.kron(out, mat)
    return out


def _dense_chain(c, n, periodic):
    """Reference builder: 3n dense site operators and their products, in
    the bond-by-bond order XX, YY, ZZ, field that build_chain keeps."""
    H = np.zeros((2 ** n, 2 ** n), dtype=complex)
    bonds = [(j, j + 1) for j in range(n - 1)]
    if periodic:
        bonds.append((n - 1, 0))
    X = [_site_op(SIGMA_X, j, n) for j in range(n)]
    Y = [_site_op(SIGMA_Y, j, n) for j in range(n)]
    Z = [_site_op(SIGMA_Z, j, n) for j in range(n)]
    for (a, b) in bonds:
        H += c.jx * (X[a] @ X[b])
        H += c.jy * (Y[a] @ Y[b])
        H += c.jz * (Z[a] @ Z[b])
        H += 0.5 * c.h * (Z[a] + Z[b])
    return H


def _loop_shift(n):
    """Reference cyclic shift, one basis state at a time."""
    dim = 2 ** n
    S = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        S[((b << 1) & (dim - 1)) | (b >> (n - 1)), b] = 1.0
    return S


def _random_couplings(rng, complex_=False):
    v = rng.normal(size=4)
    if complex_:
        v = v + 1j * rng.normal(size=4)
    return CouplingConstants(*v)


def test_gauge_baxter_pattern():
    # (gamma, 0, 0, gamma, beta, beta, alpha, alpha)
    gamma, beta, alpha = 0.8, 1.3, 0.4
    c = couplings_from_coeffs([gamma, 0, 0, gamma, beta, beta, alpha, alpha])
    assert abs(c.jx - (beta + alpha) / 2) < 1e-15
    assert abs(c.jy - (beta - alpha) / 2) < 1e-15
    assert abs(c.jz - gamma / 2) < 1e-15
    assert abs(c.h) < 1e-15


def test_zero_coefficients():
    c = couplings_from_coeffs(np.zeros(8))
    assert c.jx == c.jy == c.jz == c.h == 0


def test_hyperbolic_family_couplings():
    # coefficients (0, 0, 0, 0, lam, -lam, mu, mu)
    lam, mu = 0.9, 0.35
    fam = make_family(ff_hyperbolic_spec(lam=lam, mu=mu))
    m = hamiltonian_coeffs(fam, np.array([0.2])).m[0]
    c = couplings_from_coeffs(m)
    assert abs(c.jx - mu / 2) < 1e-12
    assert abs(c.jy + mu / 2) < 1e-12
    assert abs(c.jz) < 1e-12 and abs(c.h) < 1e-12


def test_linearity(rng):
    m1 = rng.normal(size=8)
    m2 = rng.normal(size=8)
    a = couplings_from_coeffs(m1)
    b = couplings_from_coeffs(m2)
    s = couplings_from_coeffs(m1 + m2)
    assert abs(s.jx - (a.jx + b.jx)) < 1e-14
    assert abs(s.jy - (a.jy + b.jy)) < 1e-14
    assert abs(s.jz - (a.jz + b.jz)) < 1e-14
    assert abs(s.h - (a.h + b.h)) < 1e-14


def test_two_site_xx():
    c = couplings_from_coeffs([0, 0, 0, 0, 2, 2, 0, 0])  # jx = 1, jy = 1
    cx = couplings_from_coeffs([0, 0, 0, 0, 2, 2, 2, 2])  # jx = 2, jy = 0
    op = build_chain(type(c)(jx=1, jy=0, jz=0, h=0), 2, periodic=False)
    want = np.zeros((4, 4))
    want[0, 3] = want[1, 2] = want[2, 1] = want[3, 0] = 1
    assert np.abs(op.matrix - want).max() < 1e-15
    assert cx.jx == 2 and cx.jy == 0


def test_two_site_zz():
    from cybe import CouplingConstants
    op = build_chain(CouplingConstants(0, 0, 1, 0), 2, periodic=False)
    assert np.abs(op.matrix - np.diag([1, -1, -1, 1])).max() < 1e-15


def test_field_term():
    from cybe import CouplingConstants
    op = build_chain(CouplingConstants(0, 0, 0, 2.0), 2, periodic=False)
    # h/2 (Z1 + Z2) with h = 2: diag(2, 0, 0, -2)
    assert np.abs(op.matrix - np.diag([2, 0, 0, -2])).max() < 1e-15


def test_hermitian_and_real_spectrum(rng):
    from cybe import CouplingConstants
    c = CouplingConstants(*rng.normal(size=4))
    for n in (2, 3, 6):
        for periodic in (False, True):
            op = build_chain(c, n, periodic)
            assert op.hermiticity_defect() < 1e-12
            ev = np.linalg.eigvalsh(op.matrix)
            assert np.all(np.isfinite(ev))
    czero = CouplingConstants(c.jx, c.jy, c.jz, 0.0)
    assert abs(np.trace(build_chain(czero, 3, True).matrix)) < 1e-12


def test_translation_invariance(rng):
    from cybe import CouplingConstants
    c = CouplingConstants(*rng.normal(size=4))
    for n in (3, 5):
        op = build_chain(c, n, periodic=True)
        S = cyclic_shift(n)
        assert np.abs(S @ op.matrix - op.matrix @ S).max() < 1e-10


def test_size_limit():
    from cybe import CouplingConstants
    c = CouplingConstants(1, 0, 0, 0)
    with pytest.raises(SizeLimit):
        build_chain(c, 13, False)
    with pytest.raises(SizeLimit):
        build_chain(c, 1, False)


def test_ff_relation_check_constructed():
    # m5 = m1 - m3 = -m4 + m2 makes h = m5 and jz = 0; m6 = m5 then gives
    # jx + jy = (m5 + m6)/2 = h
    m1, m3, m2 = 1.0, 0.2, 0.4
    m5 = m1 - m3
    m4 = m2 - m5
    m = np.array([m1, m2, m3, m4, m5, m5, 0.3, 0.3])
    c = couplings_from_coeffs(m)
    rep = ff_relation_check(c, m)
    assert rep["jx_plus_jy_equals_h"]
    assert rep["jz_zero"]
    assert rep["m5_equals_m1_minus_m3"]
    assert rep["m5_equals_m2_minus_m4"]


def test_ff_relation_check_baxter_pattern():
    gamma = 0.8
    m = np.array([gamma, 0, 0, gamma, 1.3, 1.3, 0.4, 0.4])
    rep = ff_relation_check(couplings_from_coeffs(m), m)
    assert not rep["jz_zero"]


def test_ff_relation_check_trig_family():
    fam = make_family(ff_trig_spec(s5=1, s7=1))
    m = hamiltonian_coeffs(fam, np.array([0.25])).m[0]
    rep = ff_relation_check(couplings_from_coeffs(m), m)
    # the m-relations hold for this family, and with m5 = m6 its chain's
    # field h = (m1 - m4)/2 = m5 (test_integrability) meets the corner
    assert rep["m5_equals_m1_minus_m3"]
    assert rep["m5_equals_m2_minus_m4"]
    assert rep["jz_zero"]
    assert rep["jx_plus_jy_equals_h"]
    assert rep["residuals"]["jx_plus_jy_minus_h"] == 0


@pytest.mark.parametrize("rows", [None, 5])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("periodic", [False, True])
def test_csv_export_matches_full_copy(tmp_path, monkeypatch, n, periodic,
                                      rows):
    """Row-block CSV bytes equal one np.savetxt of the whole re/im copy."""
    import cybe.spinchain
    if rows is not None:
        monkeypatch.setattr(cybe.spinchain, "_BLOCK_BYTES", rows * 16 * 2 ** n)
    c = CouplingConstants(1, 0.5 - 0.2j, 0.25, 0.1j)
    op = build_chain(c, n, periodic)
    H = _dense_chain(c, n, periodic)
    cols = np.empty((len(H), 2 * len(H)))
    cols[:, 0::2] = H.real
    cols[:, 1::2] = H.imag
    want, got = tmp_path / "full.csv", tmp_path / "blocks.csv"
    np.savetxt(want, cols, delimiter=",")
    export_matrix(op, str(got), "csv")
    assert got.read_bytes() == want.read_bytes()
    export_matrix(op, str(tmp_path / "blocks.csv.gz"), "csv")
    with gzip.open(tmp_path / "blocks.csv.gz") as fh:
        assert fh.read() == want.read_bytes()


def test_csv_rows_match_savetxt_on_special_values():
    """Each distinct bit pattern is formatted as np.savetxt formats it,
    signed zeros, non-finite and subnormal values included."""
    from cybe.spinchain import _csv_rows
    rng = np.random.default_rng(4)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1e308]
    cols = rng.choice(np.concatenate([special, rng.normal(size=40)]),
                      size=(7, 12))
    want = io.BytesIO()
    np.savetxt(want, cols, delimiter=",")
    assert _csv_rows(cols) == want.getvalue()


def _signed_zero_couplings(rng):
    """Zero couplings of either sign, and jx = +-jy, whose flips cancel to
    zeros, with real and complex values."""
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return [CouplingConstants(0.0, 0.0, 0.0, 0.0),
            CouplingConstants(-0.0, -0.0, -0.0, -0.0),
            CouplingConstants(*[complex(-0.0, -0.0)] * 4),
            CouplingConstants(v[0].real, v[0].real, v[2].real, v[3].real),
            CouplingConstants(v[0].real, -v[0].real, v[2].real, v[3].real),
            CouplingConstants(v[0], v[0], v[2], v[3]),
            CouplingConstants(v[0], -v[0], v[2], v[3])]


@pytest.mark.parametrize("n", range(2, 11))
def test_npy_export_is_np_save_of_the_oracle(tmp_path, monkeypatch, rng, n):
    """The streamed .npy bytes are np.save's of the dense oracle, signed
    zeros included, for blocks of 64 KiB, of 1 row and of 3 rows, which
    does not divide 2^n.  Above 7 sites, where the oracle is slow, a
    periodic complex chain with signed zeros, and below 10 sites an open
    one."""
    import cybe.spinchain
    if n <= 7:
        chains = [(c, periodic) for periodic in (False, True)
                  for c in _signed_zero_couplings(rng) + [
                      _random_couplings(rng), _random_couplings(rng, True)]
                  # the oracle rounds a two-site ring's double bond its own
                  # way (test_double_bond_two_sites)
                  if n > 2 or not periodic or c.jx in (c.jy, -c.jy)]
    else:
        chains = [(_signed_zero_couplings(rng)[-1], True)]
        if n < 10:
            chains.append((_random_couplings(rng, complex_=True), False))
    for c, periodic in chains:
        want = io.BytesIO()
        np.save(want, _dense_chain(c, n, periodic))
        op = build_chain(c, n, periodic)
        for rows in (None, 1, 3):
            if rows is not None:
                monkeypatch.setattr(cybe.spinchain, "_BLOCK_BYTES",
                                    rows * 16 * 2 ** n)
            export_matrix(op, str(tmp_path / "h.npy"))
            assert (tmp_path / "h.npy").read_bytes() == want.getvalue()


def test_npy_export_appends_the_suffix(tmp_path):
    """As np.save does, a path that does not end in .npy gets it."""
    op = build_chain(CouplingConstants(1, 0.5, 0.25, 0.1), 3, True)
    for name in ("h", "h.txt", "h.npy"):
        export_matrix(op, str(tmp_path / name))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.npy",
                                                          "h.txt.npy"]
    assert np.load(tmp_path / "h.txt.npy").shape == (8, 8)


@pytest.mark.parametrize("n", range(2, 7))
def test_row_blocks_concatenate_to_the_matrix(rng, n):
    op = build_chain(_random_couplings(rng, complex_=True), n, n % 2 == 0)
    H = op.matrix
    for rows in range(1, 2 ** n + 2):
        blocks = [block.copy() for block in op.row_blocks(rows)]
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == H.tobytes()


def test_export(tmp_path):
    from cybe import CouplingConstants
    op = build_chain(CouplingConstants(1, 0.5, 0.25, 0.1), 3, True)
    npy = tmp_path / "h.npy"
    csv = tmp_path / "h.csv"
    export_matrix(op, str(npy), "npy")
    export_matrix(op, str(csv), "csv")
    back = np.load(npy)
    assert np.array_equal(back, op.matrix)
    flat = np.loadtxt(csv, delimiter=",")
    assert np.abs(flat[:, 0::2] + 1j * flat[:, 1::2] - op.matrix).max() < 1e-12


def test_export_rejects_an_unknown_format(tmp_path):
    op = build_chain(CouplingConstants(1, 0.5, 0.25, 0.1), 3, True)
    with pytest.raises(ValueError, match="unknown export format 'txt'"):
        export_matrix(op, str(tmp_path / "h.txt"), "txt")
    assert not (tmp_path / "h.txt").exists()


def test_coefficients_need_eight_entries():
    with pytest.raises(ValueError, match="eight coefficients"):
        couplings_from_coeffs(np.zeros(7))


@pytest.mark.parametrize("n", range(3, 10))
def test_matches_dense_oracle(n, rng):
    # one nonzero term per entry and bond, added in the oracle's order
    for periodic, complex_ in itertools.product((False, True), repeat=2):
        c = _random_couplings(rng, complex_)
        assert np.array_equal(build_chain(c, n, periodic).matrix,
                              _dense_chain(c, n, periodic))


def test_double_bond_two_sites(rng):
    # n = 2 periodic: both bonds flip the same two bits, so the oracle adds
    # jx and -jy z_a z_b twice where build_chain adds their sum twice
    for complex_ in (False, True):
        c = _random_couplings(rng, complex_)
        scale = max(abs(c.jx), abs(c.jy), abs(c.jz), abs(c.h))
        got = build_chain(c, 2, periodic=True).matrix
        assert np.abs(got - _dense_chain(c, 2, True)).max() <= 1e-15 * scale


@pytest.mark.parametrize("n", range(2, 9))
def test_cyclic_shift_matches_loop(n):
    assert np.array_equal(cyclic_shift(n), _loop_shift(n))


def _free_fermion_spectrum(c, n):
    """Open XY chain in the site fields h d_j / 2 (d_j the bond degree) via
    Jordan-Wigner: with Majoranas a_2j = (prod_{k<j} Z_k) X_j and
    a_2j+1 = (prod_{k<j} Z_k) Y_j, X_j X_j+1 = -i a_2j+1 a_2j+2,
    Y_j Y_j+1 = i a_2j a_2j+3 and Z_j = -i a_2j a_2j+1, so
    H = (i/4) sum A_pq a_p a_q with A real antisymmetric.  The many-body
    levels are E0 + sum_{k in S} eps_k, eps_k >= 0 the single-particle
    energies (Lieb, Schultz and Mattis 1961)."""
    A = np.zeros((2 * n, 2 * n))

    def term(kappa, p, q):  # kappa (-i a_p a_q)
        A[p, q] -= 2 * kappa
        A[q, p] += 2 * kappa

    for j in range(n - 1):
        term(c.jx, 2 * j + 1, 2 * j + 2)
        term(-c.jy, 2 * j, 2 * j + 3)
    for j in range(n):
        degree = (j > 0) + (j < n - 1)
        term(c.h * degree / 2, 2 * j, 2 * j + 1)
    eps = np.linalg.eigvalsh(1j * A)[n:]
    levels = [sum(s) for s in itertools.product(*[(0.0, e) for e in eps])]
    return np.sort(np.array(levels) - eps.sum() / 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_free_fermion_spectrum(n, rng):
    for _ in range(3):
        jx, jy, h = rng.normal(size=3)
        c = CouplingConstants(jx, jy, 0.0, h)
        ev = np.linalg.eigvalsh(build_chain(c, n, periodic=False).matrix)
        want = _free_fermion_spectrum(c, n)
        assert np.abs(ev - want).max() <= 1e-10 * np.abs(ev).max()


def test_max_sites_trace_and_norm(rng):
    c = _random_couplings(rng, complex_=True)
    n = MAX_SITES
    H = build_chain(c, n, periodic=True).matrix
    frob2 = np.vdot(H, H).real
    # distinct Pauli strings are orthogonal under tr(A^H B); n bonds, and
    # every site of degree 2 carries h Z_j
    want = 2 ** n * (n * (abs(c.jx) ** 2 + abs(c.jy) ** 2 + abs(c.jz) ** 2)
                     + n * abs(c.h) ** 2)
    assert abs(frob2 - want) <= 1e-12 * want
    assert abs(np.trace(H)) <= 1e-12 * np.sqrt(frob2)


_CLI_RUN = """
import sys
from cybe.cli import main
code = main(["couplings", "--spec", sys.argv[1], "--sites", sys.argv[2],
             "--periodic", *sys.argv[3:]])
# the peak RSS of this process's own memory, in kB: getrusage would report
# at least the test runner's peak, which the child inherits at exec
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")),
          file=sys.stderr)
sys.exit(code)
"""


def test_max_sites_cli():
    spec = json.dumps(spec_to_json(baxter_elliptic_spec()))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_RUN, spec, str(MAX_SITES)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert '"hermiticity_defect": 0.0' in proc.stdout
    assert json.loads(proc.stdout)["sites"] == MAX_SITES
    assert int(proc.stderr.split()[-1]) < 120 * 1024
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_RUN, spec, str(MAX_SITES + 1)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"site count {MAX_SITES + 1}" in proc.stderr


def test_dump_streams_the_matrix(tmp_path):
    """An 11-site dump writes 64 MB without holding the dense matrix: the
    process peaks below 64 MB (94 MB when the dump built the matrix)."""
    spec = json.dumps(spec_to_json(baxter_elliptic_spec()))
    path = tmp_path / "h.npy"
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_RUN, spec, "11", "--matrix-out",
         str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.split()[-1]) < 64 * 1024
    H = np.load(path, mmap_mode="r")
    assert H.shape == (2048, 2048)
    assert np.array_equal(H[:64], H[:, :64].conj().T)
    assert abs(np.trace(H)) <= 1e-12 * np.abs(H).max()


@pytest.mark.parametrize("n", range(2, 11))
def test_hermiticity_defect_matches_full_matrix(n, rng):
    # complex couplings: the defect read from the bonds is the dense one bit
    # for bit, the n = 2 periodic double bond included
    for periodic in (False, True):
        op = build_chain(_random_couplings(rng, complex_=True), n, periodic)
        M = op.matrix
        # the defect reads the table as H = H^T
        assert np.array_equal(M, M.T)
        assert op.hermiticity_defect() == float(np.abs(M - M.conj().T).max())
        assert op.hermiticity_defect() > 0


def test_defect_never_builds_the_matrix(rng):
    """Build and defect together hold at most three tables' worth: no
    stack of diagonal terms and no mirror copy of the table (4.9 tables
    with both, 1.5 without)."""
    c = _random_couplings(rng, complex_=True)
    tracemalloc.start()
    try:
        op = build_chain(c, MAX_SITES, True)
        assert op.hermiticity_defect() > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * op.values.nbytes
    assert "matrix" not in op.__dict__
    assert op.diag.shape == (2 ** MAX_SITES,)
    assert op.masks.shape == (MAX_SITES + 1,)
    assert op.values.shape == (MAX_SITES + 1, 2 ** MAX_SITES)

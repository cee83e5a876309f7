"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import cmath
import dataclasses
import time

import numpy as np

from cybe import (ClassifyPlan, CouplingConstants,
                  SpectralProfile, TransformSpec, WeightVector, apply,
                  bazhanov_stroganov, bs_scale, build_chain, classify,
                  compose, couplings_from_coeffs, gauge_reduce,
                  hamiltonian_coeffs, invariant_suite, jacobi_sncndn,
                  make_family, murakami_reduction, unitarity_residual,
                  with_bs_profiles, with_murakami_profiles, ybe_residual)
from cybe.classify import curve_residuals, derived_identity_suite
from cybe.families import FAMILY_CLASS, FamilyId
from cybe.spinchain import MAX_SITES
from cybe.sampling import SamplePlan, draw_points, draw_triples

from conftest import CANONICAL_SPECS, random_spec
from test_transforms import random_transform

ALL_IDS = list(FamilyId)
GAUGE_IDS = [f for f in ALL_IDS if f not in (FamilyId.TRIVIAL_A,
                                             FamilyId.TRIVIAL_B)]
NONTRIVIAL_IDS = GAUGE_IDS
BAXTER_IDS = [FamilyId.BAXTER_ELLIPTIC, FamilyId.BAXTER_TRIG]
FF_IDS = [FamilyId.FF_ELLIPTIC, FamilyId.FF_TANH, FamilyId.FF_TRIG,
          FamilyId.FF_HYPERBOLIC]


def _report(num, name, ok, detail=""):
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          f"{'  (' + detail + ')' if detail else ''}")
    assert ok, f"criterion {num} ({name}): {detail}"


def family_triples(fam, n, seed):
    return draw_triples(fam, SamplePlan(n=n, seed=seed))


def residual_sweep(fam, n, seed):
    worst = 0.0
    for (u, v, xi, eta, lam) in family_triples(fam, n, seed):
        rep = ybe_residual(fam.eval(u, xi, eta), fam.eval(u + v, xi, lam),
                           fam.eval(v, eta, lam))
        worst = max(worst, rep.relative)
    return worst


def test_criterion_01_solution_suite():
    """Every family, 5 random parameterizations, 100 pole-free samples."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for fid in ALL_IDS:
        for trial in range(5):
            fam = make_family(random_spec(fid, rng))
            worst = max(worst, residual_sweep(fam, 100, seed=trial))
    elapsed = time.perf_counter() - t0
    _report(1, "matrix-identity suite", worst <= 1e-9 and elapsed < 60.0,
            f"worst relative residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_perturbation_power():
    """+0.1 on a7 breaks every non-trivial family on >90% of samples."""
    rng = np.random.default_rng(102)
    weakest = 1.0
    for fid in NONTRIVIAL_IDS:
        base = make_family(CANONICAL_SPECS[fid]())
        hits = 0
        triples = family_triples(base, 100, seed=7)
        for (u, v, xi, eta, lam) in triples:
            wu = base.eval(u, xi, eta)
            bad = WeightVector(wu.a + np.array([0, 0, 0, 0, 0, 0, 0.1, 0]))
            rep = ybe_residual(bad, base.eval(u + v, xi, lam),
                               base.eval(v, eta, lam))
            hits += rep.relative > 1e-3
        weakest = min(weakest, hits / len(triples))
    _report(2, "perturbation power", weakest > 0.9,
            f"weakest detection rate {weakest:.2f}")


def test_criterion_03_elliptic_kernel():
    rng = np.random.default_rng(103)
    worst_q = worst_add = worst_k0 = worst_k1 = 0.0
    for _ in range(200):
        z = complex(rng.uniform(-1.8, 1.8), rng.uniform(-0.8, 0.8))
        k = rng.uniform(0, 0.95)
        sn, cn, dn = jacobi_sncndn(z, k)
        worst_q = max(worst_q, abs(sn**2 + cn**2 - 1),
                      abs(dn**2 + k**2 * sn**2 - 1))
    for _ in range(100):
        a = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        b = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        k = rng.uniform(0.05, 0.9)
        sa, ca, da = jacobi_sncndn(a, k)
        sb, cb, db = jacobi_sncndn(b, k)
        rhs = (sa * cb * db + sb * ca * da) / (1 - k**2 * sa**2 * sb**2)
        worst_add = max(worst_add, abs(jacobi_sncndn(a + b, k)[0] - rhs))
    for _ in range(50):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
        worst_k0 = max(worst_k0, abs(jacobi_sncndn(z, 0.0)[0] - cmath.sin(z)))
        worst_k1 = max(worst_k1,
                       abs(jacobi_sncndn(z, 1 - 1e-6)[0] - cmath.tanh(z)))
    ok = (worst_q <= 1e-12 and worst_add <= 1e-10 and worst_k0 <= 1e-10
          and worst_k1 <= 1e-4)
    _report(3, "elliptic kernel",
            ok, f"quadratic {worst_q:.2e}, addition {worst_add:.2e}, "
                f"trig {worst_k0:.2e}, tanh {worst_k1:.2e}")


def test_criterion_04_transform_invariance():
    rng = np.random.default_rng(104)
    pipelines = [compose([random_transform(rng)
                          for _ in range(rng.integers(1, 4))])
                 for _ in range(20)]
    worst = 0.0
    for fid in ALL_IDS:
        fam = make_family(CANONICAL_SPECS[fid]())
        for i, pipe in enumerate(pipelines):
            out = apply(pipe, fam)
            worst = max(worst, residual_sweep(out, 6, seed=i))
    # round-trip of a scaled family
    base = make_family(CANONICAL_SPECS[FamilyId.FF_ELLIPTIC]())
    scaled = apply(TransformSpec(
        kind="scale", g=SpectralProfile("product", (), (
            SpectralProfile("exp_affine", (1.0, 0, 0)),
            SpectralProfile("one_plus_bilinear", (1.0,))))), base)
    red, _ = gauge_reduce(scaled)
    rt = 0.0
    for _ in range(25):
        u = rng.uniform(-0.3, 0.3)
        xi, eta = rng.uniform(-0.45, 0.45, 2)
        rt = max(rt, float(np.abs(red.eval(u, xi, eta).a
                                  - base.eval(u, xi, eta).a).max()))
    _report(4, "transform invariance", worst <= 1e-9 and rt <= 1e-9,
            f"pipeline residual {worst:.3e}, round-trip {rt:.3e}")


def test_criterion_05_proposition_suite():
    grid = np.linspace(-0.45, 0.45, 20)
    worst_inv = worst_fd = 0.0
    for fid in GAUGE_IDS:
        fam = make_family(CANONICAL_SPECS[fid]())
        ana = hamiltonian_coeffs(fam, grid)
        fd = hamiltonian_coeffs(dataclasses.replace(fam, spec=None), grid)
        inv = invariant_suite(fam, ana)
        worst_inv = max(worst_inv, inv["m1_sq_minus_m4_sq"],
                        inv["m5_sq_minus_m6_sq"], inv["m7_color_spread"])
        rel = (np.abs(ana.m - fd.m) / np.maximum(np.abs(ana.m), 1.0)).max()
        worst_fd = max(worst_fd, float(rel))
    _report(5, "proposition suite", worst_inv <= 1e-8 and worst_fd <= 1e-8,
            f"invariants {worst_inv:.3e}, fd-vs-analytic {worst_fd:.3e}")


def test_criterion_06_branch_dichotomy():
    rng = np.random.default_rng(106)
    grid = np.linspace(-0.45, 0.45, 12)
    worst_ff = worst_ff_ode = worst_bx = worst_univ = 0.0
    exact_defect = 0.0
    for fid in ALL_IDS:
        if fid in (FamilyId.TRIVIAL_A, FamilyId.TRIVIAL_B):
            continue
        fam = make_family(CANONICAL_SPECS[fid]())
        coeffs = hamiltonian_coeffs(fam, grid)
        pts = draw_points(fam, SamplePlan(n=20, seed=5))
        branch = "ff" if fid in FF_IDS else "baxter"
        curves = curve_residuals(fam, coeffs, pts, branch)
        idents = derived_identity_suite(fam, coeffs, pts, branch)
        worst_univ = max(worst_univ, *(idents[f"universal_{i+1}"]
                                       for i in range(7)))
        if branch == "ff":
            worst_ff = max(worst_ff, curves["ff_condition"])
            worst_ff_ode = max(worst_ff_ode, curves["coeff_bilinear"],
                               curves["coeff_quadratic_diff"],
                               curves["ode_a7_square"])
        else:
            worst_bx = max(worst_bx, curves["ode_a5_square"],
                           curves["ode_a1_square"],
                           curves["biquadratic_curve"])
            for (u, xi, eta) in pts:
                w = fam.eval(u, xi, eta)
                exact_defect = max(exact_defect, abs(w.a1 - w.a4),
                                   abs(w.a5 - w.a6))
    ok = (worst_ff <= 1e-10 and worst_ff_ode <= 1e-7 and worst_bx <= 1e-7
          and worst_univ <= 1e-7 and exact_defect == 0.0)
    _report(6, "branch dichotomy",
            ok, f"ff-condition {worst_ff:.2e}, ff-suite {worst_ff_ode:.2e}, "
                f"curve-suite {worst_bx:.2e}, universal {worst_univ:.2e}")


def test_criterion_07_literature_reductions():
    rng = np.random.default_rng(107)
    k = 0.62
    fam = make_family(with_murakami_profiles(k=k))
    worst_mk = 0.0
    n = 0
    while n < 50:
        u = rng.uniform(-0.4, 0.4)
        xi, eta = rng.uniform(-0.5, 0.5, 2)
        if min(abs(xi - eta), abs(xi + eta)) < 1e-4:
            continue
        worst_mk = max(worst_mk, float(np.abs(
            fam.eval(u, xi, eta).a - murakami_reduction(u, xi, eta, k).a
        ).max()))
        n += 1

    kbs = 0.55
    bsfam = lambda u, xi, eta: bazhanov_stroganov(u, xi, eta, kbs)
    worst_bs = 0.0
    for _ in range(40):
        u, v = rng.uniform(0.05, 0.4, 2)
        xi, eta, lam = rng.uniform(0.4, 1.2, 3)
        rep = ybe_residual(bsfam(u, xi, eta), bsfam(u + v, xi, lam),
                           bsfam(v, eta, lam))
        worst_bs = max(worst_bs, rep.relative)

    base = make_family(with_bs_profiles(kbs))
    worst_rec = 0.0
    for _ in range(50):
        u = rng.uniform(0.08, 0.5)
        xi, eta = rng.uniform(0.4, 1.2, 2)
        got = bs_scale(u, xi, eta, kbs) * base.eval(u, xi, eta).a
        worst_rec = max(worst_rec, float(np.abs(
            got - bazhanov_stroganov(u, xi, eta, kbs).a).max()))
    ok = worst_mk <= 1e-10 and worst_bs <= 1e-9 and worst_rec <= 1e-8
    _report(7, "literature reductions",
            ok, f"specialization gap {worst_mk:.2e}, "
                f"non-gauge residual {worst_bs:.2e}, recovery {worst_rec:.2e}")


def test_criterion_08_unitarity():
    worst = 0.0
    for fid in GAUGE_IDS:
        fam = make_family(CANONICAL_SPECS[fid]())
        pts = draw_points(fam, SamplePlan(n=100, seed=8))
        for (u, xi, eta) in pts:
            worst = max(worst, unitarity_residual(fam.eval, u, xi, eta))
    _report(8, "unitarity", worst <= 1e-9, f"worst defect {worst:.3e}")


def test_criterion_09_degeneration_and_classification():
    rng = np.random.default_rng(109)
    near = make_family(CANONICAL_SPECS[FamilyId.FF_ELLIPTIC](k=1 - 1e-6,
                                                             lam=1.1))
    limit = make_family(CANONICAL_SPECS[FamilyId.FF_TANH](lam=1.1))
    worst_gap = 0.0
    for _ in range(30):
        u = rng.uniform(-0.35, 0.35)
        xi, eta = rng.uniform(-0.5, 0.5, 2)
        worst_gap = max(worst_gap, float(np.abs(
            near.eval(u, xi, eta).a - limit.eval(u, xi, eta).a).max()))

    good = 0
    total = 0
    failures = []
    for fid in ALL_IDS:
        for trial in range(5):
            spec = random_spec(fid, rng)
            rep = classify(make_family(spec),
                           ClassifyPlan(n_ybe=40, seed=trial))
            total += 1
            if rep.verdict.value == FAMILY_CLASS[fid]:
                good += 1
            else:
                failures.append((fid.value, rep.verdict.value))
    ok = worst_gap <= 1e-4 and good == total == 40
    _report(9, "degeneration and classification",
            ok, f"tanh gap {worst_gap:.2e}, verdicts {good}/{total}"
                + (f", failures {failures}" if failures else ""))


def test_criterion_10_spin_chain():
    rng = np.random.default_rng(110)
    t0 = time.perf_counter()
    worst_h = 0.0
    for n in range(2, MAX_SITES + 1):
        c = CouplingConstants(*rng.normal(size=4))
        op = build_chain(c, n, periodic=bool(n % 2))
        worst_h = max(worst_h, op.hermiticity_defect())
    # couplings against hand-substituted linear combinations
    m = rng.normal(size=8) + 1j * rng.normal(size=8)
    c = couplings_from_coeffs(m)
    hand = np.array([
        (m[4] + m[5] + m[6] + m[7]) / 4 - c.jx,
        (m[4] + m[5] - m[6] - m[7]) / 4 - c.jy,
        (m[0] - m[2] + m[3] - m[1]) / 4 - c.jz,
        (m[0] - m[2] - m[3] + m[1]) / 2 - c.h,
    ])
    elapsed = time.perf_counter() - t0
    ok = worst_h <= 1e-12 and np.abs(hand).max() == 0.0 and elapsed < 30.0
    _report(10, "spin chain", ok,
            f"hermiticity {worst_h:.2e}, formula defect {np.abs(hand).max()}, "
            f"{elapsed:.1f}s")

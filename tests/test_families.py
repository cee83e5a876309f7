"""Closed-form families: identity initial value, pinned example values,
solution residuals across all sign assignments, degeneration, the two
literature reductions, validation, and JSON round-trips."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from cybe import (ColorProfile, FamilyId, FamilySpec, InvalidSpec,
                  PoleProximity, TransformSpec, SpectralProfile, apply,
                  bazhanov_stroganov, bs_scale, eval_family, jacobi_sncndn,
                  make_family, murakami_reduction, spec_from_json,
                  spec_to_json, validate_spec, with_bs_profiles,
                  with_murakami_profiles, ybe_residual)

from conftest import (CANONICAL_SPECS, baxter_elliptic_spec,
                      baxter_trig_spec, ff_elliptic_spec, ff_tanh_spec,
                      ff_hyperbolic_spec, ff_trig_spec, quarter_period_prime,
                      random_spec, trivial_a_spec, trivial_b_spec)

GAUGE_IDS = [FamilyId.BAXTER_ELLIPTIC, FamilyId.BAXTER_TRIG,
             FamilyId.FF_ELLIPTIC, FamilyId.FF_TANH, FamilyId.FF_TRIG,
             FamilyId.FF_HYPERBOLIC]
ALL_IDS = GAUGE_IDS + [FamilyId.TRIVIAL_A, FamilyId.TRIVIAL_B]

IDENTITY = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=complex)


def family_relative_residual(fam, rng, n=25, u_span=0.35, color_span=0.5,
                             max_weight=15.0):
    worst = 0.0
    got = 0
    while got < n:
        u, v = rng.uniform(-u_span, u_span, 2)
        xi, eta, lam = rng.uniform(-color_span, color_span, 3)
        try:
            wu = fam.eval(u, xi, eta)
            ww = fam.eval(u + v, xi, lam)
            wv = fam.eval(v, eta, lam)
        except PoleProximity:
            continue
        if max(wu.scale(), ww.scale(), wv.scale()) > max_weight:
            continue
        worst = max(worst, ybe_residual(wu, ww, wv).relative)
        got += 1
    return worst


@pytest.mark.parametrize("fid", GAUGE_IDS)
def test_initial_condition(fid, rng):
    fam = make_family(CANONICAL_SPECS[fid]())
    for _ in range(50):
        xi = rng.uniform(-0.5, 0.5)
        w = fam.eval(0.0, xi, xi)
        assert np.abs(w.a - IDENTITY).max() < 1e-12


def test_baxter_trig_pinned_values():
    # unit rate, shift pi/4, flat color profile, at u = pi/8 on the diagonal
    spec = baxter_trig_spec(lam=1.0, mu=np.pi / 4, slope=0.0)
    w = eval_family(spec, np.pi / 8, 0.2, 0.2)
    assert abs(w.a1 - 2.4142136) < 1e-6
    assert abs(w.a4 - 2.4142136) < 1e-6
    assert abs(w.a5 - 0.4142136) < 1e-6
    assert abs(w.a6 - 0.4142136) < 1e-6
    assert abs(w.a7 - 1.0) < 1e-12
    neg = eval_family(baxter_trig_spec(lam=1.0, mu=np.pi / 4, s5=-1),
                      np.pi / 8, 0.2, 0.2)
    assert abs(neg.a5 + 0.4142136) < 1e-6


def test_ff_elliptic_componentwise_closed_form():
    """The hyperbolic-color specialization in closed form.  The center pair
    carries a5 = cosh(xi+eta) sn + sinh(xi-eta) cd; the swapped assignment
    fails the matrix identity."""
    spec = with_murakami_profiles(k=0.5)
    w = eval_family(spec, 0.3, 0.2, 0.1)
    sn, cn, dn = jacobi_sncndn(0.3, 0.5)
    cd = cn / dn
    assert abs(w.a1 - (np.cosh(0.1) * cd + np.sinh(0.3) * sn)) < 1e-10
    assert abs(w.a4 - (np.cosh(0.1) * cd - np.sinh(0.3) * sn)) < 1e-10
    assert abs(w.a5 - (np.cosh(0.3) * sn + np.sinh(0.1) * cd)) < 1e-10
    assert abs(w.a6 - (np.cosh(0.3) * sn - np.sinh(0.1) * cd)) < 1e-10
    assert abs(w.a7 - 0.5 * sn * cd) < 1e-10
    assert abs(w.a2 - 1) == 0 and abs(w.a3 - 1) == 0 and w.a7 == w.a8


@pytest.mark.parametrize("fid", ALL_IDS)
def test_family_solves_matrix_identity(fid, rng):
    fam = make_family(CANONICAL_SPECS[fid]())
    assert family_relative_residual(fam, rng) < 1e-9


@pytest.mark.parametrize("s5", [1, -1])
@pytest.mark.parametrize("s7", [1, -1])
def test_sign_assignments_baxter(s5, s7, rng):
    fam = make_family(baxter_elliptic_spec(s5=s5, s7=s7))
    assert family_relative_residual(fam, rng, n=10) < 1e-9


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("s7", [1, -1])
def test_sign_assignments_ff(delta, s7, rng):
    fam = make_family(ff_elliptic_spec(delta=delta, s7=s7))
    assert family_relative_residual(fam, rng, n=10) < 1e-9


def test_complex_modulus_extension(rng):
    fam = make_family(baxter_elliptic_spec(k=0.3 + 0.2j, mu=0.6 + 0.1j))
    assert family_relative_residual(fam, rng, n=10) < 1e-9
    fam = make_family(ff_elliptic_spec(k=0.3 + 0.1j))
    assert family_relative_residual(fam, rng, n=10) < 1e-9


def test_random_parameterizations(rng):
    for fid in ALL_IDS:
        for _ in range(3):
            fam = make_family(random_spec(fid, rng))
            assert family_relative_residual(fam, rng, n=8) < 1e-9


def test_hyperbolic_single_rate_corners(rng):
    for (lam, mu) in [(0.8, 0.0), (0.0, 0.6)]:
        fam = make_family(ff_hyperbolic_spec(lam=lam, mu=mu))
        assert family_relative_residual(fam, rng, n=8) < 1e-9


def test_trivial_solutions_exact(rng):
    fam_a = make_family(trivial_a_spec())
    fam_b = make_family(trivial_b_spec())
    for fam in (fam_a, fam_b):
        for _ in range(20):
            u, v = rng.uniform(-0.6, 0.6, 2)
            xi, eta, lam = rng.uniform(-0.8, 0.8, 3)
            rep = ybe_residual(fam.eval(u, xi, eta), fam.eval(u + v, xi, lam),
                               fam.eval(v, eta, lam))
            assert rep.relative < 1e-12


def test_degeneration_to_tanh(rng):
    near = make_family(ff_elliptic_spec(k=1 - 1e-6, lam=1.1))
    limit = make_family(ff_tanh_spec(lam=1.1))
    for _ in range(25):
        u = rng.uniform(-0.35, 0.35)
        xi, eta = rng.uniform(-0.5, 0.5, 2)
        gap = np.abs(near.eval(u, xi, eta).a - limit.eval(u, xi, eta).a).max()
        assert gap < 1e-4


# ---- validation ----

def test_validate_good_specs():
    for fid in ALL_IDS:
        assert [d for d in validate_spec(CANONICAL_SPECS[fid]())
                if not d.startswith("warning:")] == []


def test_validate_profile_constraint_violation():
    spec = FamilySpec(family=FamilyId.FF_ELLIPTIC, k=0.5,
                      G=ColorProfile("cosh", (2, 0)),
                      H=ColorProfile("cosh", (2, 0)))
    diags = validate_spec(spec)
    assert any("G^2 - H^2" in d for d in diags)


def test_validate_zero_rate():
    with pytest.raises(InvalidSpec):
        make_family(baxter_elliptic_spec(mu=0.0))
    assert any("mu" in d for d in validate_spec(baxter_elliptic_spec(mu=0.0)))


#: edge values of the spec fields; None keeps the canonical value
EDGES = {
    "lam": (None, 0.0),
    "mu": (None, 0.0, np.pi, 1j * quarter_period_prime(0.5), 800j),
    "k": (None, 0.5, 1.5, 2j),
    "missing": (None, "G", "H", "spectral"),
}


def edge_specs():
    """Every family at every combination of the edge values."""
    for fid, *values in itertools.product(ALL_IDS, *EDGES.values()):
        changes = {n: v for n, v in zip(EDGES, values) if v is not None}
        if "missing" in changes:
            changes[changes.pop("missing")] = None
        yield dataclasses.replace(CANONICAL_SPECS[fid](), **changes)


def build_error(spec):
    """The message of the InvalidSpec ``make_family`` raises, else None."""
    try:
        make_family(spec)
    except InvalidSpec as exc:
        return str(exc)
    return None


def test_validate_spec_reports_exactly_the_build_error():
    """The canonical profiles hold their sampled constraints, so a spec's
    hard diagnostics are the build error alone, or nothing."""
    built = set()
    for spec in edge_specs():
        error = build_error(spec)
        hard = [d for d in validate_spec(spec) if not d.startswith("warning:")]
        assert hard == ([] if error is None else [error]), spec
        built.add(error is None)
    assert built == {True, False}


@pytest.mark.parametrize("spec, error", [
    (ff_elliptic_spec(k=1.5), "modulus k unusable: |k| = 1.5 exceeds"),
    (ff_elliptic_spec(k=2j), "modulus k unusable: |k| = 2 exceeds"),
    (baxter_elliptic_spec(k=1.5), "modulus k unusable: |k| = 1.5 exceeds"),
    (baxter_elliptic_spec(k=0.5, mu=1j * quarter_period_prime(0.5)),
     "mu unusable: z = 2.156515647499643"),
    (baxter_elliptic_spec(mu=800j), "mu unusable: math range error"),
    (baxter_trig_spec(mu=np.pi), "tan(mu) vanishes"),
    (ff_elliptic_spec(lam=0), "rate lam must be nonzero"),
    (dataclasses.replace(ff_tanh_spec(), H=None),
     "family ff_tanh requires profile H"),
], ids=["ff_k_real", "ff_k_imag", "baxter_k", "baxter_mu_pole",
        "baxter_mu_overflow", "trig_mu_pi", "ff_lam_zero", "tanh_no_H"])
def test_unbuildable_specs_are_invalid(spec, error):
    assert build_error(spec).startswith(error)


def test_families_ignore_fields_they_do_not_read(rng):
    for spec in (baxter_trig_spec(), ff_tanh_spec(), ff_trig_spec(),
                 ff_hyperbolic_spec(), trivial_b_spec()):
        spec = dataclasses.replace(spec, k=1.5)
        assert validate_spec(spec) == []
        assert family_relative_residual(make_family(spec), rng, n=5) < 1e-9


def test_validate_degenerate_warning():
    # the only real approach to beta +- alpha +- gamma = 0 is the mu -> 0
    # boundary, where the closed form becomes ill-conditioned
    diags = validate_spec(baxter_elliptic_spec(mu=1e-5))
    assert any(d.startswith("warning:") for d in diags)
    assert not any(d.startswith("warning:")
                   for d in validate_spec(baxter_elliptic_spec()))


def test_validate_profile_raising_on_the_grid_is_a_warning():
    # 1/sn and cn/sn have a pole at the grid point 0; exp(2000 x)
    # overflows at the two largest; exp(800) everywhere
    bs = validate_spec(with_bs_profiles(0.6))
    assert bs == ["warning: profiles G and H cannot be evaluated at 1 of 11 "
                  "sampled points: 0 (ZeroDivisionError: complex division "
                  "by zero)"]
    trig = validate_spec(FamilySpec(family=FamilyId.FF_TRIG,
                                    G=ColorProfile("recip_sn", (0.6,))))
    assert trig[0].startswith("warning: profile G cannot be evaluated at 1 ")
    assert trig[1].startswith("G must stay in the right half plane")
    b = validate_spec(FamilySpec(family=FamilyId.TRIVIAL_B,
                                 F=ColorProfile("exp", (2000, 0))))
    assert b[0] == ("warning: profile F cannot be evaluated at 2 of 11 "
                    "sampled points: 0.4, 0.5 (OverflowError: math range "
                    "error)")
    assert b[1].startswith("profile F vanishes on the color domain")
    # no point left to check: the warning alone
    nowhere = validate_spec(FamilySpec(family=FamilyId.FF_TRIG,
                                       G=ColorProfile("exp", (0, 800))))
    assert len(nowhere) == 1
    assert nowhere[0].startswith("warning: profile G cannot be evaluated at "
                                 "11 of 11 sampled points: -0.5, -0.4, -0.3, "
                                 "-0.2, ... (OverflowError")



def test_validate_evaluates_each_distinct_color_once(monkeypatch):
    """A one-point span puts 11 equal colors on the grid: each profile is
    evaluated there once, and the diagnostic still counts all 11."""
    calls = []
    call = ColorProfile.__call__
    monkeypatch.setattr(ColorProfile, "__call__",
                        lambda self, x, *o: calls.append(x) or
                        call(self, x, *o))
    assert validate_spec(ff_trig_spec(), (0.3, 0.3)) == []
    assert calls == [0.3, 0.3]   # G twice in the check, at one color
    calls.clear()
    assert validate_spec(with_bs_profiles(0.6), (0.0, 0.0)) == [
        "warning: profiles G and H cannot be evaluated at 11 of 11 sampled "
        "points: 0, 0, 0, 0, ... (ZeroDivisionError: complex division by "
        "zero)"]
    assert calls == [0.0]

def test_pole_errors():
    with pytest.raises(PoleProximity):
        eval_family(ff_hyperbolic_spec(lam=0.4, mu=1.0, gslope=0.0),
                    np.pi / 2, 0.3, 0.1)
    with pytest.raises(PoleProximity):
        bazhanov_stroganov(0.0, 0.8, 1.0, 0.55)


# ---- literature reductions ----

def test_murakami_initial_point():
    w = murakami_reduction(0.0, 0.37, 0.37, 0.5)
    assert np.abs(w.a - IDENTITY).max() < 1e-14


def test_murakami_is_solution(rng):
    fam = lambda u, xi, eta: murakami_reduction(u, xi, eta, 0.5)
    worst = 0.0
    for _ in range(30):
        u, v = rng.uniform(-0.35, 0.35, 2)
        xi, eta, lam = rng.uniform(-0.5, 0.5, 3)
        rep = ybe_residual(fam(u, xi, eta), fam(u + v, xi, lam),
                           fam(v, eta, lam))
        worst = max(worst, rep.relative)
    assert worst < 1e-9


def test_murakami_equals_specialized_family(rng):
    fam = make_family(with_murakami_profiles(k=0.62))
    for _ in range(50):
        u = rng.uniform(-0.4, 0.4)
        xi, eta = rng.uniform(-0.5, 0.5, 2)
        if min(abs(xi - eta), abs(xi + eta)) < 1e-4:
            continue
        got = fam.eval(u, xi, eta).a
        want = murakami_reduction(u, xi, eta, 0.62).a
        assert np.abs(got - want).max() < 1e-10


def test_bs_is_solution(rng):
    k = 0.55
    fam = lambda u, xi, eta: bazhanov_stroganov(u, xi, eta, k)
    worst = 0.0
    for _ in range(30):
        u, v = rng.uniform(0.05, 0.4, 2)
        xi, eta, lam = rng.uniform(0.4, 1.2, 3)
        rep = ybe_residual(fam(u, xi, eta), fam(u + v, xi, lam),
                           fam(v, eta, lam))
        worst = max(worst, rep.relative)
    assert worst < 1e-9


def test_bs_small_u_limit():
    k = 0.55
    w = bazhanov_stroganov(1e-6, 0.8, 0.8, k)
    assert abs(w.a5) < 1e-5 and abs(w.a6) < 1e-5 and abs(w.a7) < 1e-5
    assert abs(w.a1 / w.a2 - 1) < 1e-5


def test_bs_recovered_from_elliptic_family(rng):
    k = 0.55
    base = make_family(with_bs_profiles(k))
    scaled = apply(TransformSpec(kind="scale",
                                 g=SpectralProfile("const", (1.0,))), base)
    # the closed-form scale profile is not in the preset algebra; compare
    # g * family directly
    for _ in range(25):
        u = rng.uniform(0.08, 0.5)
        xi, eta = rng.uniform(0.4, 1.2, 2)
        g = bs_scale(u, xi, eta, k)
        got = g * base.eval(u, xi, eta).a
        want = bazhanov_stroganov(u, xi, eta, k).a
        assert np.abs(got - want).max() < 1e-8
    assert scaled.eval(0.2, 0.8, 0.9).a == pytest.approx(
        base.eval(0.2, 0.8, 0.9).a)


# ---- serialization ----

def test_spec_json_round_trip():
    for fid in ALL_IDS:
        spec = CANONICAL_SPECS[fid]()
        doc = spec_to_json(spec)
        back = spec_from_json(json.loads(json.dumps(doc)))
        assert back == spec


def test_spec_json_rejects_unknown_fields():
    doc = spec_to_json(baxter_elliptic_spec())
    doc["surprise"] = 1
    with pytest.raises(InvalidSpec):
        spec_from_json(doc)
    doc2 = spec_to_json(ff_elliptic_spec())
    doc2["signs"]["s9"] = 1
    with pytest.raises(InvalidSpec):
        spec_from_json(doc2)


def test_spec_json_rejects_unknown_family():
    with pytest.raises(InvalidSpec):
        spec_from_json({"family": "sixteen_vertex"})


def test_complex_rate_parameters(rng):
    fam = make_family(baxter_elliptic_spec(lam=0.8 + 0.2j, mu=0.6))
    assert family_relative_residual(fam, rng, n=10) < 1e-9
    fam = make_family(ff_hyperbolic_spec(lam=0.5 + 0.3j, mu=0.4 - 0.1j))
    assert family_relative_residual(fam, rng, n=10) < 1e-9


def test_product_color_profile(rng):
    two_cosh = ColorProfile("product", (), (
        ColorProfile("constant", (2.0,)),
        ColorProfile("cosh", (1.0, 0.0)),
    ))
    assert abs(two_cosh(0.4) - 2 * np.cosh(0.4)) < 1e-14
    doc = two_cosh.to_json()
    assert ColorProfile.from_json(doc) == two_cosh
    # a valid positive profile for the trigonometric free-fermion family
    spec = FamilySpec(family=FamilyId.FF_TRIG, lam=0.8, G=two_cosh)
    assert validate_spec(spec) == []
    fam = make_family(spec)
    assert family_relative_residual(fam, rng, n=8) < 1e-9


def test_ff_trig_rejects_left_half_plane_profile():
    spec = FamilySpec(family=FamilyId.FF_TRIG, lam=0.8,
                      G=ColorProfile("constant", (-1.0,)))
    assert any("right half plane" in d for d in validate_spec(spec))

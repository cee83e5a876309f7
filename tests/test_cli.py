"""CLI contract: subcommands, exit codes, determinism, output formats."""

import argparse
import dataclasses
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cybe import InvalidSpec, SamplePlan, spec_to_json, validate_spec
from cybe.cli import build_parser, main

from conftest import (CANONICAL_SPECS, baxter_elliptic_spec,
                      baxter_trig_spec, ff_elliptic_spec, ff_tanh_spec,
                      outermost_calls, quarter_period_prime, trivial_a_spec,
                      trivial_b_spec)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spec_file(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec_to_json(spec)))
    return str(path)


def test_eval_identity_row(tmp_path, capsys):
    path = spec_file(tmp_path, baxter_elliptic_spec())
    code, out, _ = run_cli(["eval", "--spec", path,
                            "--grid-u", "0:0:1", "--grid-xi", "0.3:0.3:1",
                            "--grid-eta", "0.3:0.3:1"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["a1_re"] - 1) < 1e-12 and abs(row["a1_im"]) < 1e-12
    assert abs(row["a5_re"]) < 1e-12 and abs(row["a7_re"]) < 1e-12


def test_eval_inline_spec(capsys):
    doc = json.dumps(spec_to_json(trivial_b_spec()))
    code, out, _ = run_cli(["eval", "--spec", doc, "--grid-u", "0.1:0.1:1",
                            "--grid-xi", "0:0:1", "--grid-eta", "0:0:1"],
                           capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["a7_im"] - 1) < 1e-12


def test_eval_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["eval", "--spec", str(bad)], capsys)
    assert code == 2
    assert err


def test_eval_unknown_field_exit_2(capsys):
    doc = spec_to_json(baxter_elliptic_spec())
    doc["bogus"] = 3
    code, _, err = run_cli(["eval", "--spec", json.dumps(doc)], capsys)
    assert code == 2


def test_eval_pole_exit_3(capsys):
    from cybe import ColorProfile, FamilyId, FamilySpec
    spec = FamilySpec(family=FamilyId.FF_HYPERBOLIC, lam=0.4, mu=1.0,
                      G=ColorProfile("linear", (0.0,)))
    doc = json.dumps(spec_to_json(spec))
    code, _, err = run_cli(["eval", "--spec", doc,
                            "--grid-u", f"{np.pi/2}:{np.pi/2}:1",
                            "--grid-xi", "0.3:0.3:1",
                            "--grid-eta", "0.1:0.1:1"], capsys)
    assert code == 3


def test_eval_grid_size_and_determinism(tmp_path, capsys):
    path = spec_file(tmp_path, ff_elliptic_spec())
    args = ["eval", "--spec", path, "--grid-u=-0.2:0.2:10",
            "--grid-xi=-0.4:0.4:10", "--grid-eta=-0.4:0.4:10"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)["rows"]) == 1000


def test_eval_csv(tmp_path, capsys):
    """A CSV reader loads the table, bit for bit the JSON rows."""
    path = spec_file(tmp_path, baxter_elliptic_spec())
    grid = ["--grid-u", "0:0.2:2", "--grid-xi=-0.3:0.3:2",
            "--grid-eta", "0.1:0.1:1"]
    code, out, _ = run_cli(["eval", "--spec", path, "--format", "csv",
                            *grid], capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:5] == ["u", "xi", "eta", "a1_re", "a1_im"]
    table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
    code, out, _ = run_cli(["eval", "--spec", path, *grid], capsys)
    rows = np.array([[r[k] for k in header] for r in json.loads(out)["rows"]])
    assert table.shape == (4, 19)
    assert table.tobytes() == rows.tobytes()


@pytest.mark.parametrize("grid_u, w", [
    (f"{-np.pi/2}:{np.pi/2}:2", "-1.5707963267948966"),
    (f"{np.pi/2}:{-np.pi/2}:2", "1.5707963267948966"),
], ids=["first_u", "last_u"])
def test_eval_names_the_first_pole_in_loop_order(grid_u, w, capsys):
    """Both u are poles, at every xi: the error names the first."""
    from cybe import ColorProfile, FamilyId, FamilySpec
    spec = FamilySpec(family=FamilyId.FF_HYPERBOLIC, lam=0.4, mu=1.0,
                      G=ColorProfile("linear", (0.0,)))
    code, out, err = run_cli(["eval", "--spec", json.dumps(spec_to_json(spec)),
                              f"--grid-u={grid_u}", "--grid-xi", "0.1:0.3:2",
                              "--grid-eta", "0.1:0.1:1"], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: cos vanishes near w = ({w}+0j)\n"


def test_verify_pass_and_fail(tmp_path, capsys):
    path = spec_file(tmp_path, trivial_a_spec())
    code, out, _ = run_cli(["verify", "--spec", path, "--samples", "40",
                            "--tol", "1e-12"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["relative_residual"]["median"] <= 1e-12

    path2 = spec_file(tmp_path, ff_elliptic_spec(), "ff.json")
    code, out, _ = run_cli(["verify", "--spec", path2, "--samples", "50",
                            "--perturb", "a7", "0.1"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_deterministic(tmp_path, capsys):
    path = spec_file(tmp_path, ff_tanh_spec())
    args = ["verify", "--spec", path, "--samples", "30", "--seed", "11"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_verify_with_transform(tmp_path, capsys):
    path = spec_file(tmp_path, ff_elliptic_spec())
    pipe = json.dumps([{"kind": "scale",
                        "g": {"preset": "exp_affine",
                              "params": [[0.5, 0], [0.1, 0], [0, 0]]}}])
    code, out, _ = run_cli(["verify", "--spec", path, "--transform", pipe,
                            "--samples", "30"], capsys)
    assert code == 0


@pytest.mark.parametrize("fid", list(CANONICAL_SPECS))
def test_verify_evaluates_one_call_per_block(fid, monkeypatch, capsys):
    """The first block of the residual sweep and, on a gauge family, of
    the unitarity sweep go in one ``eval_array`` call; a further call is
    made only per further block of 768 candidates."""
    spec = json.dumps(spec_to_json(CANONICAL_SPECS[fid]()))
    calls = outermost_calls(monkeypatch)
    for extra, want in [(["--samples", "10"], 1), (["--samples", "150"], 1),
                        (["--samples", "600"], 1),
                        (["--samples", "150", "--perturb", "a7", "0.1"], 1),
                        (["--samples", "2000"], 3)]:
        before = dict(calls)
        code, _, _ = run_cli(["verify", "--spec", spec, *extra], capsys)
        assert code == (1 if "--perturb" in extra else 0)
        assert {k: calls[k] - before[k] for k in calls} == {
            "eval_array": want, "eval": 0}, extra


def test_classify_exit_codes(tmp_path, capsys):
    cases = [
        (baxter_elliptic_spec(), "BAXTER", 0),
        (ff_tanh_spec(), "FREE_FERMION", 0),
        (trivial_b_spec(), "TRIVIAL_B", 0),
    ]
    for spec, verdict, want in cases:
        path = spec_file(tmp_path, spec, f"{verdict}.json")
        code, out, _ = run_cli(["classify", "--spec", path,
                                "--samples", "30", "--tol", "1e-8"], capsys)
        assert code == want
        assert json.loads(out)["verdict"] == verdict
    path = spec_file(tmp_path, ff_elliptic_spec(), "pert.json")
    code, out, _ = run_cli(["classify", "--spec", path, "--samples", "30",
                            "--tol", "1e-8", "--perturb", "a7", "0.1"],
                           capsys)
    assert code == 1
    assert json.loads(out)["verdict"] == "NOT_A_SOLUTION"


def test_transform_subcommand(tmp_path, capsys):
    path = spec_file(tmp_path, ff_elliptic_spec())
    pipe = json.dumps([{"kind": "swap_14_56"}])
    code, out, _ = run_cli(["transform", "--spec", path, "--transform", pipe,
                            "--grid-u", "0.2:0.2:1", "--grid-xi", "0.3:0.3:1",
                            "--grid-eta", "0.1:0.1:1"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    code, out, _ = run_cli(["eval", "--spec", path,
                            "--grid-u", "0.2:0.2:1", "--grid-xi", "0.3:0.3:1",
                            "--grid-eta", "0.1:0.1:1"], capsys)
    base = json.loads(out)["rows"][0]
    assert row["a1_re"] == base["a4_re"]
    assert row["a5_re"] == base["a6_re"]


def test_couplings_and_chain_dump(tmp_path, capsys):
    path = spec_file(tmp_path, ff_elliptic_spec())
    mat = tmp_path / "chain.npy"
    code, out, _ = run_cli(["couplings", "--spec", path, "--xi", "0.3",
                            "--sites", "4", "--periodic",
                            "--matrix-out", str(mat)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["hermiticity_defect"] < 1e-12
    H = np.load(mat)
    assert H.shape == (16, 16)
    code, _, err = run_cli(["couplings", "--spec", path, "--sites", "44"],
                           capsys)
    assert code == 2


def test_chain_dump_path_gets_the_npy_suffix(tmp_path, capsys):
    # as np.save does: --matrix-out h writes h.npy, the file reported
    path = spec_file(tmp_path, ff_elliptic_spec())
    code, out, _ = run_cli(["couplings", "--spec", path, "--sites", "3",
                            "--matrix-out", str(tmp_path / "h")], capsys)
    assert code == 0
    matrix_file = json.loads(out)["matrix_file"]
    assert matrix_file == str(tmp_path / "h.npy")
    assert not (tmp_path / "h").exists()
    assert np.load(matrix_file).shape == (8, 8)


def test_out_file(tmp_path, capsys):
    path = spec_file(tmp_path, trivial_a_spec())
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(["verify", "--spec", path, "--samples", "20",
                            "--tol", "1e-12", "--out", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["pass"] is True


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cybe.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classify" in proc.stdout


def test_threads_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("YBE_THREADS", "2")
    path = spec_file(tmp_path, ff_tanh_spec())
    args = ["verify", "--spec", path, "--samples", "30", "--seed", "4"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    monkeypatch.setenv("YBE_THREADS", "1")
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_cross_process_determinism(tmp_path):
    path = spec_file(tmp_path, ff_elliptic_spec())
    args = [sys.executable, "-m", "cybe.cli", "verify", "--spec", path,
            "--samples", "25", "--seed", "3"]
    a = subprocess.run(args, capture_output=True, text=True)
    b = subprocess.run(args, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_classify_reports_are_strict_json(capsys):
    from cybe import ColorProfile, FamilyId, FamilySpec
    # a5 = a6 = 0 identically: a solution, but not eight-vertex
    no_a5 = FamilySpec(family=FamilyId.FF_HYPERBOLIC, lam=0.0, mu=0.5,
                       G=ColorProfile("linear", (0.2,)))
    cases = [
        (["--spec", json.dumps(spec_to_json(ff_elliptic_spec())),
          "--perturb", "a7", "0.1"], 1, "NOT_A_SOLUTION"),
        (["--spec", json.dumps(spec_to_json(no_a5))], 4, "NOT_EIGHT_VERTEX"),
    ]
    for args, want, verdict in cases:
        code, out, _ = run_cli(["classify", "--samples", "30", *args], capsys)
        assert code == want
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["verdict"] == verdict
        assert doc["initial_condition_residual"] is None


def test_sampling_exhausted_exit_6(capsys):
    # a2 = 1 at every point, so no point has all weights below 0.5
    doc = json.dumps(spec_to_json(ff_tanh_spec()))
    for sub in ("verify", "classify"):
        code, out, err = run_cli([sub, "--spec", doc, "--samples", "5",
                                  "--max-weight", "0.5"], capsys)
        assert code == 6
        assert out == ""
        assert err.startswith("error: sample rejection rate too high")


def test_sampling_exhausted_is_named():
    from cybe import SamplingExhausted, make_family
    from cybe.sampling import SamplePlan, draw_points, draw_triples
    fam = make_family(ff_tanh_spec())
    for draw in (draw_triples, draw_points):
        with pytest.raises(SamplingExhausted):
            draw(fam, SamplePlan(n=3, max_weight=0.5))


@pytest.mark.parametrize("sub", ["verify", "classify"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_exit_2(sub, samples, capsys):
    doc = json.dumps(spec_to_json(ff_elliptic_spec()))
    code, out, err = run_cli([sub, "--spec", doc, "--samples", samples],
                             capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --samples must be at least 1, got {samples}\n"


_HUGE_RATE = ('{"family":"ff_hyperbolic","lambda":2100,"mu":0.5,"profiles":'
              '{"F":{"preset":"linear","params":[0.1]},'
              '"G":{"preset":"linear","params":[0.1]}}}')


def test_overflow_at_requested_point_exit_3(capsys):
    doc = ('{"family":"trivial_a","profiles":{"spectral":'
           '{"preset":"exp_affine","params":[2000,0,0]}}}')
    code, out, err = run_cli(["eval", "--spec", doc, "--grid-u", "0.36:0.36:1",
                              "--grid-xi", "0:0:1", "--grid-eta", "0:0:1"],
                             capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: weights overflow at (u, xi, eta)")
    assert err.count("\n") == 1


def test_coefficients_overflow_when_read_not_when_built(capsys):
    # tan(0.3+800j) is finite, so the spec builds and validates; sin and
    # cos of it overflow, so reading its coefficients is a pole (exit 3)
    spec = dataclasses.replace(baxter_trig_spec(), mu=0.3 + 800j)
    assert validate_spec(spec) == []
    code, out, err = run_cli(["couplings", "--spec",
                              json.dumps(spec_to_json(spec)), "--xi", "0.2"],
                             capsys)
    assert code == 3
    assert out == ""
    assert err == ("error: coefficients overflow at xi = 0.2: "
                   "math range error\n")


def test_overflowing_samples_are_rejected(capsys):
    # cosh(2100 u) overflows for |u| > 0.338; all weights exceed the
    # default max_weight away from u = 0, so sampling runs dry
    code, out, err = run_cli(["classify", "--spec", _HUGE_RATE,
                              "--samples", "20"], capsys)
    assert code == 6
    assert out == ""
    assert err.startswith("error: sample rejection rate too high")
    assert err.count("\n") == 1


def test_overflowing_samples_skipped_under_large_max_weight(capsys):
    code, out, err = run_cli(["verify", "--spec", _HUGE_RATE, "--samples",
                              "40", "--max-weight", "1e30"], capsys)
    assert code in (0, 1)
    assert err == ""
    json.loads(out, parse_constant=_reject_constant)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


_BS = ('{"family":"ff_elliptic","k":0.6,"lambda":0.5,"profiles":{'
       '"G":{"preset":"recip_sn","params":[0.6]},'
       '"H":{"preset":"cn_over_sn","params":[0.6]}}}')


@pytest.mark.parametrize("argv, exit_code", [
    (["verify", "--spec", _BS, "--samples", "5"], 1),
    (["verify", "--spec", '{"family":"trivial_b","profiles":{"F":'
      '{"preset":"exp","params":[2000,0]}}}', "--samples", "5"], 2),
    (["verify", "--spec", '{"family":"ff_trig","profiles":{"G":'
      '{"preset":"recip_sn","params":[0.6]}}}', "--samples", "5"], 2),
    (["verify", "--spec", '{"family":"ff_trig","profiles":{"G":'
      '{"preset":"exp","params":[0,800]}}}', "--samples", "5"], 6),
    (["eval", "--spec", json.dumps(spec_to_json(ff_tanh_spec())),
      "--transform", '[{"kind":"regauge","N":{"preset":"exp",'
      '"params":[2000,0]}}]', "--grid-u", "0:0:1", "--grid-xi", "0:0:1",
      "--grid-eta", "0:0:1"], 0),
], ids=["bs_profiles", "trivial_b_overflow", "ff_trig_recip_sn",
        "ff_trig_overflow_everywhere", "regauge_overflow"])
def test_profiles_raising_on_the_diagnostic_grid(argv, exit_code, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == exit_code
    assert all(line.startswith(("warning: ", "error: "))
               for line in err.splitlines())
    if code in (0, 1):
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and err.count("error: ") == 1


def test_spec_warnings_are_printed(capsys):
    code, out, err = run_cli(["verify", "--spec", _BS, "--samples", "5"],
                             capsys)
    assert code == 1
    assert err == ("warning: profiles G and H cannot be evaluated at 1 of 11 "
                   "sampled points: 0 (ZeroDivisionError: complex division "
                   "by zero)\n")


@pytest.mark.parametrize("sub", ["verify", "classify"])
def test_spec_is_validated_on_the_command_color_span(sub, capsys):
    """G = x + 0.7 leaves the right half plane below x = -0.7: valid on the
    default span, invalid on (-1, 1)."""
    spec = ('{"family":"ff_trig","profiles":{"G":{"preset":"affine",'
            '"params":[1,0.7]}}}')
    argv = [sub, "--samples", "200", "--spec", spec]
    code, out, err = run_cli(argv + ["--color-span", "1.0"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: G must stay in the right half plane (principal "
                   "sqrt(G^2) must equal G)\n")
    assert run_cli(argv, capsys)[0] == 0


def test_vanishing_profile_message_names_plain_colors(capsys):
    code, out, err = run_cli(
        ["verify", "--spec", '{"family":"trivial_b","profiles":{"F":'
         '{"preset":"exp","params":[2000,0]}}}'], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: profile F vanishes on the color domain at "
                   "[-0.5, -0.4, -0.3]\n")


@pytest.mark.parametrize("sub", ["verify", "classify"])
@pytest.mark.parametrize("bound", ["1e300", "inf", "nan"])
def test_max_weight_beyond_the_product_range_exit_2(sub, bound, capsys):
    doc = ('{"family":"trivial_a","profiles":{"spectral":'
           '{"preset":"exp_affine","params":[2000,0,0]}}}')
    code, out, err = run_cli([sub, "--spec", doc, "--samples", "40",
                              "--max-weight", bound], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_weight must be at most 1e+100")
    assert err.count("\n") == 1


_FF_TRIG = ('{"family":"ff_trig","profiles":{"G":{"preset":"cosh",'
            '"params":[0.8,0.4]}}}')


def _samples(sub):
    """A short sweep for the commands that sample; the others take no
    --samples."""
    return ["--samples", "20"] if sub in ("verify", "classify") else []


@pytest.mark.parametrize("argv, message", [
    (["verify", "--tol", "nan"], "--tol must be a finite number, got nan"),
    (["verify", "--tol", "inf"], "--tol must be a finite number, got inf"),
    (["verify", "--tol=-1e-9"], "--tol must be at least 0, got -1e-09"),
    (["classify", "--tol", "nan"], "--tol must be a finite number, got nan"),
    (["verify", "--u-span", "nan"],
     "--u-span must be a finite number, got nan"),
    (["classify", "--color-span", "inf"],
     "--color-span must be a finite number, got inf"),
    (["verify", "--perturb", "a1", "nan"],
     "--perturb DELTA must be a finite number, got 'nan'"),
    (["eval", "--perturb", "a1", "inf", "--grid-u", "0:0:1"],
     "--perturb DELTA must be a finite number, got 'inf'"),
    (["verify", "--perturb", "a1", "0.1x"],
     "--perturb DELTA must be a finite number, got '0.1x'"),
    # a negative non-finite value in its own argument is a value too
    (["verify", "--tol", "-inf"], "--tol must be a finite number, got -inf"),
    (["classify", "--tol", "-Infinity"],
     "--tol must be a finite number, got -inf"),
    (["verify", "--u-span", "-INF"],
     "--u-span must be a finite number, got -inf"),
    (["verify", "--perturb", "a7", "-nan"],
     "--perturb DELTA must be a finite number, got '-nan'"),
    (["verify", "--perturb", "a9", "0.1"],
     "cannot perturb unknown field 'a9'"),
], ids=["verify_tol_nan", "verify_tol_inf", "verify_tol_negative",
        "classify_tol_nan", "u_span_nan", "color_span_inf", "perturb_nan",
        "eval_perturb_inf", "perturb_not_a_number", "tol_negative_inf",
        "classify_tol_negative_infinity", "u_span_negative_inf",
        "perturb_negative_nan", "perturb_unknown_field"])
def test_malformed_flag_exit_2(argv, message, capsys):
    code, out, err = run_cli(argv + ["--spec", _FF_TRIG] + _samples(argv[0]),
                             capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("exponent, fixed", [
    (["verify", "--spec", _FF_TRIG, "--samples", "20", "--perturb", "a7",
      "-1e-3"], ["verify", "--spec", _FF_TRIG, "--samples", "20",
                 "--perturb", "a7", "-0.001"]),
    (["couplings", "--spec", _FF_TRIG, "--xi", "-1E-1"],
     ["couplings", "--spec", _FF_TRIG, "--xi", "-0.1"]),
    (["classify", "--spec", _FF_TRIG, "--samples", "20", "--perturb", "a1",
      "-.5e-2"], ["classify", "--spec", _FF_TRIG, "--samples", "20",
                  "--perturb", "a1", "-0.005"]),
], ids=["verify_perturb", "couplings_xi", "classify_perturb"])
def test_negative_exponent_form_is_a_value(exponent, fixed, capsys):
    """argparse's own pattern takes -1e-3 for an option, not a number."""
    got = run_cli(exponent, capsys)
    assert got[0] != 2 and got[2] == ""
    assert got == run_cli(fixed, capsys)


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope' (choose from "
     "'eval', 'verify', 'classify', 'transform', 'couplings')"),
    (["verify"], "the following arguments are required: --spec"),
    (["verify", "--spec", _FF_TRIG, "--samples", "x"],
     "argument --samples: invalid int value: 'x'"),
    (["verify", "--spec", _FF_TRIG, "--bogus"],
     "unrecognized arguments: --bogus"),
    (["classify", "--spec", _FF_TRIG, "--perturb", "a7"],
     "argument --perturb: expected 2 arguments"),
    (["verify", "--spec", _FF_TRIG, "--tol", "-info"],
     "argument --tol: expected one argument"),
], ids=["no_command", "unknown_command", "missing_spec", "samples_not_int",
        "unknown_flag", "perturb_one_value", "tol_not_a_value"])
def test_parse_errors_are_one_error_line(argv, message, capsys):
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


_EVERY = {"--spec", "--transform", "--perturb", "--out"}
_SWEEP = {"--seed", "--tol", "--samples", "--u-span", "--color-span",
          "--max-weight"}
_GRID = {"--grid-u", "--grid-xi", "--grid-eta"}


def test_each_command_declares_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {name: {o for a in p._actions for o in a.option_strings
                       if o.startswith("--") and o != "--help"}
                for name, p in sub.choices.items()}
    assert declared == {
        "eval": _EVERY | _GRID | {"--format"},
        "transform": _EVERY | _GRID | {"--format"},
        "verify": _EVERY | _SWEEP,
        "classify": _EVERY | _SWEEP,
        "couplings": _EVERY | {"--format", "--xi", "--h", "--sites",
                               "--periodic", "--matrix-out"},
    }


@pytest.mark.parametrize("argv, flags", [
    (["couplings", "--color-span", "nan", "--samples", "-5", "--tol", "-1",
      "--max-weight", "1e300"],
     "--color-span nan --samples -5 --tol -1 --max-weight 1e300"),
    (["eval", "--seed", "7"], "--seed 7"),
    (["verify", "--samples", "20", "--format", "csv"], "--format csv"),
    (["classify", "--format", "json"], "--format json"),
], ids=["couplings_sweep_flags", "eval_seed", "verify_format",
        "classify_format"])
def test_a_flag_the_command_does_not_read_exit_2(argv, flags, capsys):
    assert run_cli(argv + ["--spec", _FF_TRIG], capsys) == (
        2, "", f"error: unrecognized arguments: {flags}\n")


_AFFINE = ('{"family":"ff_trig","profiles":{"G":{"preset":"affine",'
           '"params":[1,0.7]}}}')


@pytest.mark.parametrize("argv", [
    ["eval", "--grid-xi=-1:1:3"],
    ["eval", "--grid-eta=-1:0:2"],
    ["transform", "--grid-xi=-0.9:-0.9:1"],
    ["couplings", "--xi", "-0.9"],
], ids=["eval_xi", "eval_eta", "transform_xi", "couplings_xi"])
def test_spec_is_validated_at_the_evaluated_colors(argv, capsys):
    """G = x + 0.7 leaves the right half plane below x = -0.7."""
    code, out, err = run_cli(argv + ["--spec", _AFFINE], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: G must stay in the right half plane (principal "
                   "sqrt(G^2) must equal G)\n")


@pytest.mark.parametrize("argv", [
    ["eval", "--grid-xi=0:0.4:3", "--grid-eta=-0.2:0.2:2"],
    ["transform", "--grid-xi=-0.2:-0.2:1", "--grid-eta=0.4:0.4:1"],
    ["couplings", "--xi", "-0.2"],
], ids=["eval", "transform", "couplings"])
def test_spec_valid_at_the_evaluated_colors_passes(argv, capsys):
    """G = x + 0.3 fails on the sweeps' default span (-0.5, 0.5), but not
    at colors from -0.2 up."""
    spec = _AFFINE.replace("0.7", "0.3")
    code, out, err = run_cli(argv + ["--spec", spec], capsys)
    assert (code, err) == (0, "")
    json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("grid", ["0:1:0", "0:1:-1"])
def test_grid_without_colors_exit_2(grid, capsys):
    assert run_cli(["eval", "--spec", _FF_TRIG, "--grid-xi", grid],
                   capsys) == (
        2, "", f"error: grid must be 'start:stop:count', got {grid!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["couplings", "--xi", "nan"], "--xi must be a finite number, got nan"),
    (["couplings", "--xi", "inf"], "--xi must be a finite number, got inf"),
    (["couplings", "--xi", "-inf"],
     "--xi must be a finite number, got -inf"),
    (["eval", "--grid-xi", "nan:nan:1"],
     "--grid-xi start must be a finite number, got nan"),
    (["transform", "--grid-eta=-0.1:inf:2"],
     "--grid-eta stop must be a finite number, got inf"),
    (["eval", "--grid-u", "0:1e999:3"],
     "--grid-u stop must be a finite number, got inf"),
], ids=["couplings_xi_nan", "couplings_xi_inf", "couplings_xi_negative_inf",
        "eval_grid_xi_nan", "transform_grid_eta_inf", "eval_grid_u_overflow"])
def test_non_finite_color_exit_2(argv, message, capsys):
    """A color or grid endpoint that is not finite is a malformed flag."""
    assert run_cli(argv + ["--spec", _FF_TRIG], capsys) == (
        2, "", f"error: {message}\n")


def test_overflowing_color_is_a_pole_exit_3(capsys):
    """G = cosh(0.8 x + 0.4) overflows at x = 1e308: its coefficients are
    a named pole error, not a traceback."""
    code, out, err = run_cli(["couplings", "--spec", _FF_TRIG,
                              "--xi", "1e308"], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == (
        "error: coefficients overflow at xi = 1e+308: math range error")
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "warning", "error"]


def test_couplings_of_a_non_gauge_family_exit_2(capsys):
    """After regauge, a7 != a8: the chain form cannot carry m7 - m8."""
    regauge = ('[{"kind":"regauge","N":{"preset":"exp","params":[0.7,0.1]},'
               '"s":[1.3,0.4]}]')
    assert run_cli(["couplings", "--spec", _FF_TRIG, "--transform",
                    regauge], capsys) == (
        2, "", "error: couplings need a gauge family (m7 = m8 and m2 = m3), "
        "got |m7 - m8| = 2.213e+00 and |m2 - m3| = 0.000e+00\n")


def test_couplings_after_scale_stay_a_gauge_family(capsys):
    scale = ('[{"kind":"scale","g":{"preset":"exp_affine",'
             '"params":[0.5,0.1,-0.2]}}]')
    code, out, err = run_cli(["couplings", "--spec", _FF_TRIG, "--transform",
                              scale, "--sites", "4"], capsys)
    assert (code, err) == (0, "")
    m = json.loads(out)["coefficients"]
    assert m[6] == m[7] and m[1] == m[2]


def test_zero_tolerance_is_a_valid_flag(capsys):
    code, out, err = run_cli(["verify", "--spec", _FF_TRIG, "--samples", "20",
                              "--tol", "0"], capsys)
    assert code in (0, 1) and err == ""
    assert json.loads(out, parse_constant=_reject_constant)["tolerance"] == 0


def test_sample_plan_bounds_max_weight():
    SamplePlan(max_weight=1e100)
    for bad in (1.01e100, np.inf, np.nan):
        with pytest.raises(InvalidSpec):
            SamplePlan(max_weight=bad)


def test_commands_raise_no_numpy_warnings(capsys):
    """An overflow is a rejection or a named error, never a warning."""
    scaled = ["eval", "--spec", json.dumps(spec_to_json(trivial_b_spec())),
              "--transform", '[{"kind":"scale","g":{"preset":"exp_affine",'
              '"params":[709,0,0]}}]', "--grid-u", "1:1:1",
              "--grid-xi", "0.3:0.3:1", "--grid-eta", "0:0:1"]
    huge = ["verify", "--spec", '{"family":"trivial_a","profiles":{'
            '"spectral":{"preset":"exp_affine","params":[2000,0,0]}}}',
            "--samples", "40", "--max-weight", "1e100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(scaled, capsys)
        assert code == 3
        assert err.splitlines()[-1].startswith("error: weights overflow")
        code, out, err = run_cli(huge, capsys)
        assert code == 0 and err == ""
        json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("sub", ["verify", "classify", "eval"])
@pytest.mark.parametrize("spec, error", [
    (ff_elliptic_spec(k=1.5), "error: modulus k unusable: |k| = 1.5 "),
    (ff_elliptic_spec(k=2j), "error: modulus k unusable: |k| = 2 "),
    (baxter_elliptic_spec(k=0.5, mu=1j * quarter_period_prime(0.5)),
     "error: mu unusable: z = 2.156515647499643"),
    (baxter_elliptic_spec(mu=800j), "error: mu unusable: math range error"),
], ids=["ff_k_real", "ff_k_imag", "baxter_mu_pole", "baxter_mu_overflow"])
def test_unbuildable_spec_exit_2(sub, spec, error, capsys):
    code, out, err = run_cli([sub, "--spec", json.dumps(spec_to_json(spec))]
                             + _samples(sub), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(error) and err.count("\n") == 1


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_result_is_a_named_error(value, monkeypatch, capsys):
    """Output is strict JSON: a planted non-finite coupling is exit 7 with
    one error: line, and nothing on stdout."""
    import cybe.spinchain
    from cybe import CouplingConstants
    monkeypatch.setattr(cybe.spinchain, "couplings_from_coeffs",
                        lambda m: CouplingConstants(value, 0.5, 0.25, 0.1))
    spec = json.dumps(spec_to_json(ff_elliptic_spec()))
    code, out, err = run_cli(["couplings", "--spec", spec], capsys)
    assert (code, out) == (7, "")
    assert err == ("error: the result holds a NaN or an infinity, which JSON "
                   "cannot carry\n")

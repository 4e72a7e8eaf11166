import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from capra.cli import build_parser, main
from capra.conjugacy import ZeroHomFnSpec, _check_grid_work
from capra.envelope import _on_ball, ball_box_grid
from capra.norms import NormalizationSpec
from capra.numerics import FunctionSample, Grid, default_dual_grid, write_sample_csv
from capra.oracle import convex_envelope_2d


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_topk(capsys):
    code, out, _ = run_cli(capsys, "norm", "--kind", "topk", "--q", "1",
                           "--k", "2", "--x", "3,-1,2")
    assert code == 0 and out.strip() == "5"


def test_norm_ksupport(capsys):
    code, out, _ = run_cli(capsys, "norm", "--kind", "ksupport", "--p", "inf",
                           "--k", "2", "--x", "1,1,1")
    assert code == 0 and out.strip() == "1.5"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, k, x, want", [
    # k = d: the l2 norm, as --kind topk --q 2 --k 2 prints it.
    ("2", "2", "1e200,1e200", "1.41421356237e+200"),
    ("2", "2", "1e-200,1e-200", "1.41421356237e-200"),
    ("2", "2", "3e160,4e160", "5e+160"),
    # max(l1 / k, linf), whose l1 alone overflows.
    ("inf", "2", "1e308,1e308", "1e+308"),
    # The l1 norm, 2e308, overflows: +inf, without an overflow warning.
    ("2", "1", "1e308,1e308", "+inf"),
])
def test_norm_ksupport_at_extreme_scales(capsys, p, k, x, want):
    code, out, err = run_cli(capsys, "norm", "--kind", "ksupport", "--p", p, "--k", k, "--x", x)
    assert (code, out, err) == (0, want + "\n", "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code, out, err", [
    # lp values beyond the largest float are +inf: nu(1, 1) = 2^2000 at
    # p = 0.0005, so the diagonal checkpoint (1, 1) / nu(1, 1) is the origin.
    ("envelope --nu lp:0.0005 --grid 11", 0,
     "value near (1,0): 1\nvalue near (0,1): 1\nvalue near (0,0): 0\n", ""),
    ("verify --oracle envelope2d --grid 11 --nu lp:0.0005", 0, "", ""),
    # Pairings that overflow are taken at x / max|x| and scaled back, to the
    # value that norm --kind ksupport prints.
    ("verify --oracle ksupport --x 1e308,1e308 --p 2 --k 2 --count 10", 0,
     "1.41421356237e+308\n", ""),
    ("norm --kind ksupport --x 1e308,1e308 --p 2 --k 2", 0, "1.41421356237e+308\n", ""),
    ("verify --oracle ksupport --x 1e308,1e308 --p inf --k 2 --count 10", 0, "1e+308\n", ""),
    # The sampled best norm pairs its cloud with x / max|x| where a pairing
    # overflows: beyond the largest float, +inf.
    ("norm --kind best --p 2 --phi 0,inf,1 --x 1.7e308,1.7e308", 0, "+inf\n", ""),
    ("norm --kind best --p 2 --phi 0,3,1 --x 1.7e308,1.7e308", 0, "+inf\n", ""),
    # Level 0 of inf*id is an exact 0, not inf * 0.
    ("norm --kind best --p 2 --phi inf*id --x 1,2", 3, "",
     "error: invalid-phi: phi(l) must be finite for at least one l >= 1\n"),
], ids=["envelope-p0.0005", "envelope2d-p0.0005", "ksupport-oracle-p2", "ksupport-norm-p2",
        "ksupport-oracle-pinf", "best-sampled-huge", "best-sampled-huge-phi3", "phi-inf-id"])
def test_extreme_values_exit_cleanly(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv.split()) == (code, out, err)


def test_norm_best(capsys):
    code, out, _ = run_cli(capsys, "norm", "--kind", "best", "--p", "2",
                           "--phi", "id", "--x", "1,-1")
    assert code == 0 and out.strip() == "2"


def test_norm_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "norm", "--kind", "topk", "--q", "2",
                           "--k", "2", "--x", "1,1")
    assert code == 0 and out.strip() == f"{math.sqrt(2.0):.12g}"


def test_parse_error_exit_2(capsys):
    # A missing --x, and a --kind or an --oracle outside argparse's choices,
    # which the command handlers do not check again.
    for argv, why in ((["norm", "--kind", "topk"], "required: --x"),
                      (["norm", "--kind", "foo", "--x", "1"], "invalid choice: 'foo'"),
                      (["verify", "--oracle", "foo"], "invalid choice: 'foo'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and why in capsys.readouterr().err


def test_domain_error_exit_3(capsys):
    code, out, err = run_cli(capsys, "norm", "--kind", "topk", "--q", "1",
                             "--k", "9", "--x", "1,2")
    assert code == 3
    assert "k-out-of-range" in err
    for kind in (["topk", "--q", "2"], ["ksupport", "--p", "2"], ["best", "--p", "2"]):
        code, _, err = run_cli(capsys, "norm", "--kind", *kind, "--k", "1", "--x", "nan,1")
        assert code == 3 and "nan-input" in err
    code, _, err = run_cli(capsys, "verify", "--oracle", "conjugate", "--grid", "11",
                           "--at", "nan,1")
    assert code == 3 and "nan-input" in err
    for x in ("inf,1", "nan,1"):
        code, out, err = run_cli(capsys, "verify", "--oracle", "support-phi",
                                 "--p", "2", "--x", x)
        assert code == 3 and out == "" and "nonfinite-input" in err
    # The message names the input at fault: --dim whatever f is, and --q
    # (the exponent the user gave) rather than its conjugate p.
    for f in ("l0", "zero"):
        code, out, err = run_cli(capsys, "envelope", "--nu", "lp:2", "--grid", "7",
                                 "--dim", "0", "--f", f)
        assert (code, out) == (3, "")
        assert err == "error: invalid-dim: a ball grid needs dim >= 1 (got 0)\n"
    code, out, err = run_cli(capsys, "verify", "--oracle", "topk-enum", "--x", "1,2",
                             "--k", "1", "--q", "0.5")
    assert (code, out) == (3, "")
    assert err == "error: invalid-q: --oracle topk-enum needs --q in [1, inf] (got 0.5)\n"
    # Exponents and grid counts out of range carry the tag of the input at
    # fault, raised by the library function that reads it.
    for argv, tag in ((("norm", "--kind", "topk", "--q", "0.5", "--k", "1", "--x", "1,2"),
                       "invalid-q"),
                      (("norm", "--kind", "best", "--p", "0.5", "--x", "1,2"), "invalid-p"),
                      (("verify", "--oracle", "ksupport", "--x", "1,2", "--p", "0.5", "--k", "1"),
                       "invalid-p"),
                      (("verify", "--oracle", "ksupport", "--x", "1,2", "--p", "nan", "--k", "1"),
                       "invalid-p"),
                      (("envelope", "--nu", "lp:2", "--grid", "10"), "invalid-grid")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "") and err.startswith(f"error: {tag}: "), argv


def test_nonfinite_dual_points_and_checkpoints_exit_3(capsys, monkeypatch):
    # --at inf,0 used to print nan (conjugate) or end in an OverflowError
    # traceback (envelope2d), and --at nan,0 in an untagged message.  The
    # envelope2d checkpoint is refused before the oracle runs.
    def no_oracle(*args):
        raise AssertionError("the oracle ran before the checkpoint was refused")

    monkeypatch.setattr("capra.oracle.convex_envelope_2d", no_oracle)
    for oracle in ("conjugate", "envelope2d"):
        for at, tag in (("inf,0", "nonfinite-input"), ("0,-inf", "nonfinite-input"),
                        ("nan,0", "nan-input")):
            code, out, err = run_cli(capsys, "verify", "--oracle", oracle, "--grid", "11",
                                     "--nu", "lp:2", "--at", at)
            assert (code, out) == (3, "") and err.startswith(f"error: {tag}: "), (oracle, at)
    # An infinite --x is a primal point: its dual top-k norm is +inf.
    code, out, _ = run_cli(capsys, "verify", "--oracle", "topk-enum", "--x", "inf,1", "--k", "1")
    assert (code, out) == (0, "+inf\n")


@pytest.mark.parametrize("argv", [
    ("envelope", "--nu", "lp:2", "--grid", "11", "--f", "phi:0,x,2"),
    ("envelope", "--nu", "lp:2", "--grid", "11", "--f", "phi:0,nan,2"),
    ("norm", "--kind", "best", "--p", "2", "--phi", "x*id", "--x", "1,-1"),
    ("norm", "--kind", "best", "--p", "2", "--phi", "nan*id", "--x", "1,-1"),
])
def test_unparseable_phi_weights_exit_3_as_invalid_phi(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith("error: invalid-phi: ")


def test_unsupported_p_exit_3(capsys):
    code, _, err = run_cli(capsys, "norm", "--kind", "ksupport", "--p", "3",
                           "--k", "1", "--x", "1,2")
    assert code == 3 and "unsupported-p" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": {"lp": 2}, "phi": [0, 1, 2]}))
    code, out, _ = run_cli(capsys, "norm", "--kind", "best", "--x", "1,-1",
                           "--config", str(cfg))
    assert code == 0 and out.strip() == "2"
    # --phi overrides the config weights
    code, out, _ = run_cli(capsys, "norm", "--kind", "best", "--x", "1,-1",
                           "--config", str(cfg), "--phi", "2*id")
    assert code == 0 and out.strip() == "4"


def test_envelope_command(tmp_path, capsys):
    out_csv = tmp_path / "surface.csv"
    out_json = tmp_path / "surface.json"
    code, out, _ = run_cli(capsys, "envelope", "--f", "l0", "--nu", "lp:inf",
                           "--grid", "41", "--out", str(out_csv),
                           "--json", str(out_json))
    assert code == 0
    assert "value near (1,0): 1" in out
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    pts, vals = rows[:, :-1], rows[:, -1]
    assert pts.shape == (41 * 41, 2)
    linf = np.max(np.abs(pts), axis=1)
    l1 = np.sum(np.abs(pts), axis=1)
    ball = linf <= 1.0 + 1e-9
    assert np.max(np.abs(vals[ball] - l1[ball])) <= 1e-12
    assert np.all(np.isinf(vals[~ball]))
    summary = json.loads(out_json.read_text())
    assert summary["min"] == 0.0 and summary["max"] == "+inf"


def test_envelope_zero_function(capsys):
    code, out, _ = run_cli(capsys, "envelope", "--f", "zero", "--nu", "lp:2",
                           "--grid", "21")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.endswith(": 0")


def test_envelope_invalid_nu_exit_3(capsys):
    code, _, err = run_cli(capsys, "envelope", "--f", "l0", "--nu", "lp:0",
                           "--grid", "21")
    assert code == 3 and "nonpositive-p" in err


def test_envelope_work_too_large_exit_3(capsys, monkeypatch):
    # 401^3 primal nodes against the default 257^3 dual grid fold to 2.15e9
    # updates, and 61^4 against 257^4 to 2.6e10: refused from the array
    # shapes, before any grid's nodes are built.
    nodes = []
    monkeypatch.setattr(Grid, "nodes", property(lambda grid: nodes.append(grid)))
    for dim, grid in (("3", "401"), ("4", "61")):
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "envelope", "--nu", "lp:2", "--dim", dim, "--grid", grid)
        assert code == 3 and err.startswith("error: work-too-large: envelope transform needs ")
        assert time.perf_counter() - t0 < 1.0 and nodes == []
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "envelope", "--nu", "lp:2", "--dim", "2", "--grid", "201")
    assert code == 0 and "value near (1,0): 1" in out


@pytest.mark.parametrize("weight, count", [("1e308", "inf"), ("1e300", "6.4e+301")])
def test_envelope_huge_phi_weight_exit_3(capsys, monkeypatch, weight, count):
    # The default dual grid's half-range grows with the largest finite phi
    # weight.  1e308 used to end in an OverflowError traceback (math.ceil of
    # inf) and 1e300 in numpy's untagged "Maximum allowed size exceeded";
    # both are refused before a dual axis is built.
    counts = []
    monkeypatch.setattr("capra.numerics._axis", lambda lo, hi, n: counts.append(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "envelope", "--f", f"phi:0,{weight},2",
                                 "--nu", "lp:2", "--grid", "21")
    assert (code, out, counts) == (3, "", [21, 21])  # the two ball-grid axes only
    assert err.strip() == (f"error: work-too-large: default dual grid needs {count} "
                           f"nodes per axis, over the cap of 2e+09")


def test_verify_oracle_conjugate_pairing_overflow_exit_3(capsys):
    # |y|_1 of the dual point overflows: the point transform used to print
    # +inf with an overflow RuntimeWarning, a traceback under -W error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify", "--oracle", "conjugate", "--nu", "lp:2",
                                 "--grid", "41", "--at", "1.7e308,1.7e308")
    assert (code, out) == (3, "") and err.startswith("error: pairing-overflow: point transform ")
    code, out, _ = run_cli(capsys, "verify", "--oracle", "conjugate", "--nu", "lp:2",
                           "--grid", "41", "--at", "1e308,0.5e308")
    # Finite pairings near the largest float still give the grid value,
    # which lies below |y|_2 = 1.118e308.
    assert (code, out) == (0, "1.10526315789e+308\n")


def test_envelope_3d_grid_201_is_under_the_cap():
    # The analytic chain of --dim 3 --grid 201 folds every axis: 5.19e8
    # updates, under the 2e9 cap; unfolded it would count 8.17e9, over it.
    # Both are counted without running.
    chain = (default_dual_grid(3, 3.0), ball_box_grid(3, 201))
    assert _check_grid_work(chain, (True,) * 3) == 519_479_259
    with pytest.raises(ValueError, match=r"needs 8\.17e\+09 updates"):
        _check_grid_work(chain, (False,) * 3)


def test_verify_norms_suite(tmp_path, capsys):
    # The norms suite at the default seed: every check passes and the
    # report has its documented shape.
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "norms",
                           "--seed", "0x5EED", "--report", str(report))
    print(out)
    assert code == 0
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert data["suite"] == "norms" and data["seed"] == 0x5EED
    assert all("name" in c and "tolerance" in c and "observed" in c
               for c in data["checks"])
    assert all(c["passed"] is True for c in data["checks"])
    assert data["counts"]["passed"] + data["counts"]["failed"] == len(data["checks"])
    assert data["passed"] == all(c["passed"] for c in data["checks"])
    assert out.count("[PASS]") == len(data["checks"]) == 8


def test_verify_conjugacy_suite_report(tmp_path, capsys):
    # The conjugacy suite through the CLI: every check passes.
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "conjugacy", "--report", str(report))
    print(out)
    assert code == 0
    data = json.loads(report.read_text())
    assert data["passed"] is True and data["suite"] == "conjugacy"
    assert all(c["passed"] is True for c in data["checks"])
    assert out.count("[PASS]") == len(data["checks"]) == 8


def test_verify_report_deterministic(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run_cli(capsys, "verify", "--suite", "norms", "--seed", "7",
                   "--report", str(r1))[0] == 0
    assert run_cli(capsys, "verify", "--suite", "norms", "--seed", "7",
                   "--report", str(r2))[0] == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_oracle_modes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--oracle", "topk-enum",
                           "--q", "1", "--k", "2", "--x", "3,-1,2")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(capsys, "verify", "--oracle", "ksupport",
                           "--p", "2", "--k", "1", "--x", "3,4",
                           "--count", "20000")
    assert code == 0 and abs(float(out) - 7.0) <= 1e-3
    code, out, _ = run_cli(capsys, "verify", "--oracle", "support-phi",
                           "--p", "inf", "--phi", "id", "--x", "1,-1")
    assert code == 0 and out.strip() == "2"
    # At d = 1 the vecdot pairing gives +0.0 for a zero product.
    code, out, _ = run_cli(capsys, "verify", "--oracle", "support-phi",
                           "--p", "2", "--x", "0")
    assert code == 0 and out == "0\n"
    code, out, _ = run_cli(capsys, "verify", "--oracle", "conjugate",
                           "--f", "l0", "--nu", "lp:2", "--grid", "41",
                           "--at", "3,0")
    assert code == 0 and abs(float(out) - 2.0) <= 0.2
    # envelope2d writes the oracle envelope of f restricted to the ball.
    out_csv, ref_csv = tmp_path / "oracle.csv", tmp_path / "ref.csv"
    code, _, _ = run_cli(capsys, "verify", "--oracle", "envelope2d", "--nu", "lp:0.5",
                         "--grid", "21", "--out", str(out_csv))
    grid = ball_box_grid(2, 21)
    _, values = _on_ball(ZeroHomFnSpec.l0(2), NormalizationSpec.lp(0.5), grid)
    write_sample_csv(convex_envelope_2d(FunctionSample(grid, values)), ref_csv)
    assert code == 0 and out_csv.read_bytes() == ref_csv.read_bytes()


@pytest.mark.parametrize("argv, tag", [
    (("conjugate", "--grid", "100001", "--at", "1,1"), "work-too-large"),  # 74.5 GiB of nodes
    (("envelope2d", "--grid", "100001"), "work-too-large"),
    (("ksupport", "--x", "1,2", "--p", "2", "--k", "1", "--count", "100000000000"),
     "work-too-large"),  # 1.46 TiB of directions
    (("ksupport", "--x", "1,2", "--p", "2", "--k", "1", "--count", "-1"), "invalid-count"),
    (("conjugate", "--grid", "40001", "--at", "1,1"), "work-too-large"),  # 3.2e9 floats
    (("envelope2d", "--grid", "241"), "work-too-large"),  # 2.16e9 pairs per pass
])
def test_verify_oracle_refuses_before_allocating(capsys, argv, tag):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--oracle", *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == "" and err.startswith(f"error: {tag}: ")


def test_ksupport_oracle_refuses_dimension_before_building_directions(capsys, monkeypatch):
    import capra.oracle

    def no_directions(*args, **kwargs):
        raise AssertionError("directions built before the dimension check")

    monkeypatch.setattr(capra.oracle, "default_direction_set", no_directions)
    code, out, err = run_cli(capsys, "verify", "--oracle", "ksupport", "--x", ",".join(["1"] * 12),
                             "--p", "2", "--k", "1", "--count", "10")
    assert (code, out) == (3, "")
    assert err == "error: dimension-too-large: brute force supports d <= 6 (got 12)\n"


def test_best_norm_sign_patterns_work_cap(capsys, monkeypatch):
    # A phi that does not collapse samples the dual ball on 3^d - 1 sign
    # patterns and 4096 directions; the 3^d d floats of the patterns, then
    # the 4096 d of the directions, are counted before any is built.
    from capra import numerics

    argv = ("norm", "--kind", "best", "--p", "2", "--phi", "0,inf,1,1,1", "--x", "1,1,1,1")
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 3**4 * 4 - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: work-too-large: sign patterns needs 324 floats")
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 4096 * 4 - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: work-too-large: unit directions needs 1.64e+04 floats")
    monkeypatch.setattr(numerics, "MAX_TRANSFORM_WORK", 4096 * 4)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and float(out) > 0.0


@pytest.mark.parametrize("oracle, given, missing", [
    ("ksupport", ("--k", "1", "--x", "1,2"), "p"),
    ("ksupport", ("--p", "2", "--x", "1,2"), "k"),
    ("ksupport", ("--p", "2", "--k", "1"), "x"),
    ("support-phi", ("--x", "1,-1"), "p"),
    ("support-phi", ("--p", "2"), "x"),
    ("conjugate", ("--grid", "11"), "at"),
    ("topk-enum", ("--x", "3,-1,2"), "k"),
    ("topk-enum", ("--k", "2"), "x"),
])
def test_verify_oracle_missing_argument_exit_3(capsys, oracle, given, missing):
    code, out, err = run_cli(capsys, "verify", "--oracle", oracle, *given)
    assert code == 3 and out == ""
    assert err.strip() == f"error: missing-argument: --oracle {oracle} needs --{missing}"


def test_verify_requires_suite_or_oracle(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 3 and "--suite or --oracle" in err


@pytest.mark.parametrize("argv, tag", [
    (("verify", "--oracle", "topk-enum", "--x", ",", "--k", "1"), "invalid-point"),
    (("norm", "--kind", "topk", "--q", "1", "--k", "1", "--x", "1,,2"), "invalid-point"),
    (("envelope", "--nu", "lp:abc"), "invalid-nu"),
    (("envelope", "--nu", "l2"), "invalid-nu"),
    (("verify", "--oracle", "conjugate", "--nu", "l2", "--grid", "11", "--at", "1,1"),
     "invalid-nu"),
    (("envelope", "--f", "bogus", "--nu", "lp:2"), "unknown-function"),
    (("norm", "--kind", "topk", "--x", "1,2"), "missing-argument"),
    (("norm", "--kind", "ksupport", "--x", "1,2"), "missing-argument"),
    (("norm", "--kind", "best", "--x", "1,2"), "missing-argument"),
    (("verify",), "missing-argument"),
    (("verify", "--oracle", "envelope2d", "--grid", "41", "--at", "0.3"), "dimension-mismatch"),
    (("verify", "--oracle", "conjugate", "--grid", "41", "--at", "1,2,3"),
     "dimension-mismatch"),
    (("verify", "--suite", "norms", "--seed", "abc"), "invalid-seed"),
    (("verify", "--oracle", "ksupport", "--x", "1,2", "--p", "2", "--k", "1", "--seed", "0xz"),
     "invalid-seed"),
    (("norm", "--kind", "best", "--x", "1,2", "--config", "CONFIG"), "invalid-config"),
])
def test_domain_errors_carry_a_tag(tmp_path, capsys, argv, tag):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith(f"error: {tag}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_infinity_spellings(tmp_path, capsys):
    # Exponents and weights are read by float: any case, either sign,
    # surrounding whitespace, "inf" or "infinity".
    for spelling in ("inf", "+inf", "INF", " Infinity ", "+infinity"):
        code, out, _ = run_cli(capsys, "norm", "--kind", "topk", "--q", spelling,
                               "--k", "2", "--x", "3,-4,1")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run_cli(capsys, "norm", "--kind", "best", "--p", spelling,
                               "--phi", f"0,1,{spelling}", "--x", "1,-1")
        assert code == 0 and out.strip() == "2"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": {"lp": "Infinity"}, "phi": [0, 1, 2]}))
    code, out, _ = run_cli(capsys, "norm", "--kind", "best", "--x", "1,-1",
                           "--config", str(cfg))
    assert code == 0 and out.strip() == "2"
    code, _, err = run_cli(capsys, "norm", "--kind", "best", "--p", "2",
                           "--phi", "0,1,nan", "--x", "1,-1")
    assert code == 3 and "nan" in err


def test_main_reuses_parser_without_leaking_state(capsys):
    # One parser serves every call of a process; a sequence of calls, a
    # parse error among them, prints and exits as fresh processes do.  The
    # second topk call lacks --q and --k, which the first one gave.
    calls = [
        ["norm", "--kind", "topk", "--q", "1", "--k", "2", "--x", "3,-1,2"],
        ["norm", "--kind", "ksupport", "--k", "2"],
        ["norm", "--kind", "topk", "--x", "3,-1,2"],
        ["envelope", "--nu", "lp:inf", "--grid", "11"],
        ["verify", "--oracle", "ksupport", "--x", "1,2", "--k", "1"],
    ]
    assert build_parser() is build_parser()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = [subprocess.Popen([sys.executable, "-m", "capra.cli", *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in calls]
    codes = []
    for argv, proc in zip(calls, fresh):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        captured = capsys.readouterr()
        out, err = proc.communicate()
        assert (code, captured.out, captured.err) == (proc.returncode, out, err), argv
    assert codes == [0, 2, 3, 0, 3]


def _run_fresh(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "capra.cli", *argv], env=env, text=True,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("case", ["envelope-out-dir", "envelope-json-missing-dir",
                                  "verify-report-dir", "norm-config-missing"])
def test_file_errors_exit_3_as_io_error(tmp_path, case):
    missing = str(tmp_path / "missing" / "x.json")
    argv = {
        "envelope-out-dir": ["envelope", "--nu", "lp:inf", "--grid", "11", "--out", str(tmp_path)],
        "envelope-json-missing-dir": ["envelope", "--nu", "lp:inf", "--grid", "11",
                                      "--json", missing],
        "verify-report-dir": ["verify", "--suite", "norms", "--report", str(tmp_path)],
        "norm-config-missing": ["norm", "--kind", "topk", "--q", "1", "--k", "1",
                                "--x", "1,2", "--config", missing],
    }[case]
    proc = _run_fresh(*argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: io-error: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


# SHA-256 of the CSV and JSON of ``capra envelope --nu <nu> --grid 41``.  Their
# arithmetic is exact IEEE add, multiply and max (no pow), so the digests hold
# on every platform.
ENVELOPE_DIGESTS = {
    "lp:1": ("f0648a5cde58f42b512b008e599829b732e6aae3d4de2429eb4bcf6bde85a062",
             "91299fa570597526c59c3692c5303d8e915f5d5870c5a8ade6a7160298cab8b8"),
    "lp:inf": ("a2677b1186a4c34688e840c9ccb45be36f9f9266a0da3ed4fb5fa6f46add26e0",
               "6d2bb9d01dac2ef8d245dadf3063186f5fa354956fa90dad75907d8fd759c38d"),
}


# SHA-256 of the CSV of ``capra verify --oracle envelope2d --nu <nu> --grid
# 41``, with the options that follow the nu in the key.  Ball masks with no
# pow, and only add, multiply and max in the referee, so the digests hold on
# every platform; the CSV writes -0.0 as -0.0, so they pin the sign of every
# zero too.  At d = 1 the lp:1 and lp:inf balls are one interval.
REFEREE_DIGESTS = {
    "lp:1": "0178f747582103aaa920a1f097e66f04f67e637d6e4710160b0af401e4717519",
    "lp:inf": "def074821e2cf659e9acd8a346b193186113450c53262b5252aea4985ecde942",
    "lp:1 --dim 1": "2a3beac579244c2a6c4c74774167e32732cfbe1f72b785fea73784d067375d22",
    "lp:inf --dim 1": "2a3beac579244c2a6c4c74774167e32732cfbe1f72b785fea73784d067375d22",
}


@pytest.mark.parametrize("case", sorted(REFEREE_DIGESTS))
def test_referee_output_bytes_are_frozen(tmp_path, capsys, case):
    csv = tmp_path / "referee.csv"
    nu, *options = case.split()
    code, _, _ = run_cli(capsys, "verify", "--oracle", "envelope2d", "--nu", nu, *options,
                         "--grid", "41", "--out", str(csv))
    assert code == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == REFEREE_DIGESTS[case]


@pytest.mark.parametrize("nu", sorted(ENVELOPE_DIGESTS))
def test_envelope_output_bytes_are_frozen(tmp_path, capsys, nu):
    csv, summary = tmp_path / "surface.csv", tmp_path / "surface.json"
    code, _, _ = run_cli(capsys, "envelope", "--nu", nu, "--grid", "41",
                         "--out", str(csv), "--json", str(summary))
    assert code == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (csv, summary))
    assert digests == ENVELOPE_DIGESTS[nu]


# SHA-256 of the CSV and JSON of ``capra envelope --nu <nu> --dim 3 --grid
# <n>``, per SIMD_MATH key (conftest.py): under numpy's AVX-512 loops,
# computed before the CSV writer gathered each block in one join and the lp
# mask was evaluated on each axis's distinct magnitudes; under its AVX2 and
# baseline loops, after.  lp:1.5 takes powers in the ball mask and the conjugate, whose last
# bits depend on the dispatch (and on the platform's numpy build).
DIM3_ENVELOPE_DIGESTS = {
    ("lp:2", "21"): {
        "43ba2ac24b7d96b1": (
            "b9a55eaf30a80d6813536df1379fef31199df438a5a5f6556f7b17df5373231e",
            "b4bd514b9b310bc8311b7fd8353cad50b7a98b0984866d791d691f2c9fc71d9e"),
        "ce2eaeb21c77bf4d": (
            "b9a55eaf30a80d6813536df1379fef31199df438a5a5f6556f7b17df5373231e",
            "b4bd514b9b310bc8311b7fd8353cad50b7a98b0984866d791d691f2c9fc71d9e"),
    },
    ("lp:1.5", "31"): {
        "43ba2ac24b7d96b1": (
            "dce72ddf3a13bfd1e4edbd2fdb21e93cdc65abac010683d1df6b331c33391270",
            "adb5c8bb834d838f1ec8885683c8b5533c9222feb59eabfd7e00fcd476783184"),
        "ce2eaeb21c77bf4d": (
            "581c3ce081194af9c049212468b4f01be216ae6c7e1ddb1f33c62fad660e522a",
            "adb5c8bb834d838f1ec8885683c8b5533c9222feb59eabfd7e00fcd476783184"),
    },
}


@pytest.mark.parametrize("nu, grid", sorted(DIM3_ENVELOPE_DIGESTS))
def test_dim3_envelope_output_bytes_are_frozen(tmp_path, capsys, frozen_for_dispatch, nu, grid):
    csv, summary = tmp_path / "surface.csv", tmp_path / "surface.json"
    code, _, _ = run_cli(capsys, "envelope", "--nu", nu, "--dim", "3", "--grid", grid,
                         "--out", str(csv), "--json", str(summary))
    assert code == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (csv, summary))
    assert digests == frozen_for_dispatch(DIM3_ENVELOPE_DIGESTS[nu, grid])


@pytest.mark.parametrize("config, argv", [
    ({"source": {"xx": 2}}, ()),
    ({"nu": {"x": 1}}, ("--p", "2")),
    ({"source": 5}, ()),
    ({"nu": 5}, ("--p", "2")),
    ({"source": {"lp": "abc"}}, ()),
    ({"source": {"lp": [2]}}, ()),
    ({"nu": {"lp": None}}, ("--p", "2")),
    ([{"lp": 2}], ("--p", "2")),
    ({"nu": {"lp": 0.5}}, ("--p", "2")),
    ({"sourc": {"lp": 1}}, ("--p", "2")),
])
def test_malformed_config_exit_3_as_invalid_config(tmp_path, capsys, config, argv):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "norm", "--kind", "best", "--x", "1,2",
                             "--config", str(path), *argv)
    assert (code, out) == (3, "") and err.startswith("error: invalid-config: "), err
    assert err.count("\n") == 1 and "Traceback" not in err


# SHA-256 of the report of ``capra verify --suite envelope --seed 7``: its
# values come from pow and BLAS products as well as add, multiply and max, so
# unlike the digests above it is pinned for the x86-64 numpy wheels.
ENVELOPE_SUITE_REPORT_DIGEST = "f96e259df1159bd5e218eefc9fd280f1a0f4bd53e92158cc1017b101d26c2980"


def test_envelope_suite_report_bytes_are_frozen(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--suite", "envelope", "--seed", "7",
                         "--report", str(report))
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == ENVELOPE_SUITE_REPORT_DIGEST


# The same for ``capra verify --suite norms --seed 7``, whose custom-source
# check reads the sampled restricted duals.
NORMS_SUITE_REPORT_DIGEST = "169a54530e989f9d911cc58e944d8c9d211c2a7ffd4edbf60fcc16f7cc62c0c2"


def test_norms_suite_report_bytes_are_frozen(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--suite", "norms", "--seed", "7",
                         "--report", str(report))
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == NORMS_SUITE_REPORT_DIGEST

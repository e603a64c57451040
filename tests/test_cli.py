"""Command-line interface: reports, JSON schema, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jetlaw.cli import main
from jetlaw.parser import parse_expression as P

from conftest import in_span


KDV = "u_t + u*u_x + u_xxx = 0"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_derive_text_report(capsys):
    code, out = run(capsys, "derive", "--pde", KDV,
                    "--order", "2", "--deg-tx", "1", "--deg-u", "2")
    assert code == 0
    assert "multipliers found: 4" in out
    assert "verified: True" in out


def test_derive_json_schema(capsys):
    code, out = run(capsys, "derive", "--pde", KDV, "--format", "json",
                    "--order", "2", "--deg-tx", "1", "--deg-u", "2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"pde", "params", "ansatz", "laws", "dimensions"}
    assert len(payload["laws"]) == 4
    for rec in payload["laws"]:
        assert set(rec) == {"pde", "lambda", "phi_t", "phi_x", "utilde", "verified"}
        assert rec["verified"] is True
        P(rec["lambda"])  # expressions are pipeable back into the grammar
        P(rec["phi_t"])
        P(rec["phi_x"])


def test_derive_output_deterministic(capsys):
    _, out1 = run(capsys, "derive", "--pde", KDV, "--format", "json",
                  "--order", "2", "--deg-tx", "1", "--deg-u", "2")
    _, out2 = run(capsys, "derive", "--pde", KDV, "--format", "json",
                  "--order", "2", "--deg-tx", "1", "--deg-u", "2")
    assert out1 == out2


def test_derive_contains_galilean_multiplier(capsys):
    _, out = run(capsys, "derive", "--pde", KDV, "--format", "json",
                 "--order", "2", "--deg-tx", "1", "--deg-u", "2")
    lams = [P(rec["lambda"]) for rec in json.loads(out)["laws"]]
    target = P("t*u - x")
    assert in_span(target, lams)


def test_scan_dimensions(capsys):
    code, out = run(capsys, "scan", "--pde", "u_t + u^n*u_x + u_xxx = 0",
                    "--scan", "n=1..4", "--order", "2", "--deg-tx", "1",
                    "--deg-u", "n+1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimensions"] == {"n=1": 4, "n=2": 4, "n=3": 3, "n=4": 3}


def test_same_root_pow_spellings_derive_and_verify_alike(capsys):
    # pow(2*u-3, -7/3) spelled as a product of same-base powers or as a power
    # of one is the same PDE: lambda = 1 is found and verifies on each.
    tail = "*u_xx - 14/3*pow(2*u-3,-10/3)*u_x^2"
    pdes = []
    for spelling in ("pow(2*u-3,-7/3)", "pow(2*u-3,-1/3)*pow(2*u-3,-2/3)*pow(2*u-3,-4/3)",
                     "pow(2*u-3,-1/3)^7"):
        code, out = run(capsys, "derive", "--pde", "u_t = " + spelling + tail,
                        "--order", "0", "--deg-u", "1", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert [(law["lambda"], law["verified"]) for law in payload["laws"]] == [("1", True)]
        pdes.append(payload["pde"])
        code, out = run(capsys, "verify", "--pde", "u_t = " + spelling + tail, "--multiplier", "1")
        assert code == 0 and "PASS" in out
    assert pdes == [pdes[0]] * 3


def test_verify_liouville_instance(capsys):
    code, out = run(capsys, "verify", "--pde", "u_tx = exp(u)",
                    "--multiplier", "1 + x*u_x")
    assert code == 0
    assert "PASS" in out


def test_derive_wave_with_tx_weights_verifies_every_law(capsys):
    code, out = run(capsys, "derive", "--pde", "u_tt = u_xx", "--format", "json",
                    "--order", "1", "--deg-tx", "2", "--deg-u", "1")
    assert code == 0
    laws = json.loads(out)["laws"]
    assert len(laws) == 11
    assert all(rec["verified"] is True for rec in laws)


def test_third_order_wave_laws_derive_and_conserve(capsys):
    # 7 admissible jets (u .. u_xxx, t-order below 2): 36 columns, 11 laws
    bounds = ["--pde", "u_tt = u_xx", "--order", "3", "--deg-u", "2"]
    code, out = run(capsys, "derive", *bounds)
    assert code == 0
    assert "ansatz size: 36\nmultipliers found: 11\n" in out
    assert out.count("verified: True") == 11
    code, out = run(capsys, "numcheck", *bounds, "--initial", "bumps", "--length", "20",
                    "--dt", "0.01", "--horizon", "2")
    assert code == 0
    assert out.count("drift=") == 11


def test_verify_wave_conformal_characteristic(capsys):
    code, out = run(capsys, "verify", "--pde", "u_tt = u_xx",
                    "--multiplier", "2*t*x*u_x + t^2*u_t + x^2*u_t")
    assert code == 0
    assert "PASS" in out


def test_verify_failure_renders_residual(capsys):
    code, out = run(capsys, "verify", "--pde", KDV, "--multiplier", "u_x")
    assert code == 1
    assert "FAIL" in out and "residual" in out


def test_density_command(capsys):
    code, out = run(capsys, "density", "--pde", "u_tx = sin(u)",
                    "--multiplier", "u_xxx + u_x^3/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert P(payload["phi_t"]) == P("u_x*u_xxx/2 + u_x^4/8")


def test_density_of_a_large_power_is_one_error_line(capsys):
    for extra, message in [
            # The lam-integral of u^n at utilde = 0 is one term, not n steps.
            (["--multiplier", "u^10000"], "not a total x-derivative; residual 10000*u^9999*u_x^2"),
            (["--multiplier", "u^1000000000"],
             "not a total x-derivative; residual 1000000000*u^999999999*u_x^2"),
            # At utilde = 1, and in the rebase of u^m beside pow(u + 1, r), the
            # binomial expansion is refused before any power is built; the
            # rebase fires in the product, so the parser names the *.
            (["--multiplier", "u^5000", "--utilde", "1"],
             "expansion may hold 5001 terms, more than 3001"),
            (["--multiplier", "u^1000000000", "--utilde", "1"],
             "expansion may hold 1000000001 terms, more than 3001"),
            (["--multiplier", "u^20000*pow(u+1,1/2)"],
             "expansion may hold 20001 terms, more than 3001 (at position 7)"),
            (["--multiplier", "u^4000*pow(u+1,1/2)"],
             "expansion may hold 4001 terms, more than 3001 (at position 6)")]:
        start = time.perf_counter()
        code = main(["density", "--pde", "u_t = u_xx"] + extra)
        assert time.perf_counter() - start < 1, extra
        assert code == 2
        assert capsys.readouterr().err == "error: %s\n" % message


def test_import_leaves_numpy_unloaded():
    # Only numcheck reads numpy, and the CLI imports it where numcheck runs.
    probe = "import sys, jetlaw.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=_src_env(),
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")


def test_density_with_a_jet_reference_state_is_one_error_line(capsys):
    code = main(["density", "--pde", KDV, "--multiplier", "u", "--utilde", "u_x"])
    assert code == 2
    assert capsys.readouterr().err \
        == "error: reference state must not involve jet coordinates\n"


def test_verify_pure_t_multiplier_on_u_tx_is_refused(capsys):
    code = main(["verify", "--pde", "u_tx = u^2", "--multiplier", "u_t"])
    assert code == 2
    assert capsys.readouterr().err \
        == "error: multiplier depends on u_t, excluded for leading u_tx\n"


def test_parse_error_exit_code(capsys):
    code = main(["derive", "--pde", "u_q + u = 0", "--order", "1"])
    assert code == 2


def test_numcheck_blowup_exit_code(capsys):
    code = main(["numcheck", "--pde", "u_t = u^2 + u_xx", "--order", "0",
                 "--dt", "0.5", "--horizon", "50"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "unstable configuration" in captured.err


def test_numcheck_zero_length_exit_code(capsys):
    code = main(["numcheck", "--pde", KDV, "--order", "0", "--length", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "length" in captured.err


def test_numcheck_step_count_over_the_cap_exit_code(capsys):
    code = main(["numcheck", "--pde", KDV, "--order", "0", "--dt", "1e-9", "--grid-n", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "RK4 steps" in captured.err


def test_numcheck_huge_grid_is_one_error_line(capsys):
    # refused by GridConfig before any array is allocated
    code = main(["numcheck", "--pde", "u_t = u_xx", "--order", "0", "--deg-u", "1",
                 "--grid-n", "1000000000000000", "--dt", "0.001", "--horizon", "0.01"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "65536 points" in err


def test_numcheck_soliton_conserves_mass_and_momentum(capsys):
    code, out = run(capsys, "numcheck", "--pde", KDV, "--order", "1", "--deg-u", "2",
                    "--initial", "soliton", "--dt", "2e-4", "--horizon", "0.05",
                    "--format", "json")
    assert code == 0
    laws = json.loads(out)["laws"]
    # 12 sech^2(x) has mass 24 and momentum (the integral of u^2/2) 96
    assert [rec["law"] for rec in laws] == ["1", "u"]
    assert [round(rec["series"][0]["Q"], 9) for rec in laws] == [24, 96]
    assert all(rec["drift"] <= 1e-12 for rec in laws)


def test_param_flag(capsys):
    code, out = run(capsys, "derive", "--pde", "u_t + u^n*u_x + u_xxx = 0",
                    "--param", "n=3", "--order", "2", "--deg-tx", "1",
                    "--deg-u", "4", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["laws"]) == 3


def test_out_file_and_numcheck(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, _ = run(capsys, "derive", "--pde", KDV, "--format", "json",
                  "--out", str(out_json), "--order", "1", "--deg-tx", "0",
                  "--deg-u", "1")
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["laws"]

    run_dir = tmp_path / "runs"
    code, out = run(capsys, "numcheck", "--pde", KDV, "--order", "1",
                    "--deg-tx", "0", "--deg-u", "1", "--initial", "periodic",
                    "--grid-n", "128", "--dt", "1e-3", "--length", "40",
                    "--horizon", "0.05", "--out", str(run_dir))
    assert code == 0
    csvs = sorted(run_dir.glob("law*.csv"))
    assert csvs
    header = csvs[0].read_text().splitlines()[0]
    assert header == "t,Q,drift"
    meta = json.loads((run_dir / "run.json").read_text())
    assert meta["config"]["n"] == 128


def test_numcheck_out_files_are_byte_identical(tmp_path, capsys):
    """The CSVs and run.json of one numcheck --out, pinned byte for byte by
    the SHA-256 of their names and contents in name order."""
    out = tmp_path / "runs"
    code, _ = run(capsys, "numcheck", "--pde", KDV, "--order", "2", "--deg-tx", "0",
                  "--deg-u", "2", "--grid-n", "128", "--dt", "1e-3", "--horizon", "0.05",
                  "--out", str(out))
    assert code == 0
    paths = sorted(out.iterdir())
    assert [p.name for p in paths] == ["law00.csv", "law01.csv", "law02.csv", "run.json"]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == \
        "71be78bdfd3eaf0b368883b20c408e11bd7e575edd4b583402051c07d1355608"


def test_derive_out_in_a_missing_directory_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = main(["derive", "--pde", KDV, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err


def test_numcheck_out_under_a_regular_file_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["numcheck", "--pde", KDV, "--order", "1", "--grid-n", "64",
                 "--horizon", "0.01", "--out", str(blocker / "runs")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err


def _src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_141_silently(fmt):
    # The read end of stdout is closed before the process starts, so its
    # first write fails with EPIPE.
    env = _src_env()
    argv = [sys.executable, "-m", "jetlaw.cli", "derive", "--pde", "u_t = u_xx", "--order", "1",
            "--deg-u", "2", "--deg-tx", "1", "--format", fmt]
    read, write = os.pipe()
    os.close(read)
    try:
        closed = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (closed.returncode, closed.stderr) == (141, b"")


def test_long_inline_pde_is_not_probed_as_a_path(capsys):
    # KdV padded with cancelling terms: with no "/" in it, the text is one
    # path component too long for a file name, so probing it raises OSError.
    text = "u_t + u_xxx + u*u_x" + " + u_x - u_x" * 30 + " = 0"
    assert len(text) > 300 and "/" not in text
    code, out = run(capsys, "verify", "--pde", text, "--multiplier", "u")
    assert code == 0
    assert "PASS" in out


def test_deeply_nested_pde_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.pde"
    path.write_text("u_t = " + "(" * 2000 + "u_xx" + ")" * 2000 + "\n")
    code = main(["derive", "--pde", str(path), "--order", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nesting" in err


def test_non_multiplier_from_the_solver_is_a_typed_error(monkeypatch, capsys):
    import jetlaw.cli
    from jetlaw.expr import ExprError

    assert issubclass(jetlaw.cli.UnsoundMultiplier, ExprError)
    # For KdV, build_law raises NotXDerivative on u^2 and returns an
    # unverified law for u_x; either way the gate names the non-multiplier.
    for lam in ("u^2", "u_x"):
        monkeypatch.setattr(jetlaw.cli, "solve_multipliers",
                            lambda pde, bounds: (None, [P("u"), P(lam)]))
        code = main(["derive", "--pde", KDV, "--order", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: solver emitted a non-multiplier: %s\n" % lam


def test_build_law_error_on_a_multiplier_is_raised_again(monkeypatch, capsys):
    import jetlaw.cli
    from jetlaw.expr import ExprError

    def failing(pde, lam, utilde):
        raise ExprError("no law for %s" % lam)

    monkeypatch.setattr(jetlaw.cli, "solve_multipliers", lambda pde, bounds: (None, [P("u")]))
    monkeypatch.setattr(jetlaw.cli, "build_law", failing)
    code = main(["derive", "--pde", KDV, "--order", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: no law for u\n"


def test_derive_computes_each_determining_expression_once(count_calls, capsys):
    # Wave c = u has 3 multipliers.  Stage 2 of the solve evaluates one
    # determining expression per adjoint symmetry and verify one per law; the
    # soundness gate reads verify's result, where it used to compute its own
    # (10 calls).
    from jetlaw import detsys

    calls = count_calls(detsys, "determining_expression")
    code, out = run(capsys, "derive", "--pde", "u_tt = u^2*u_xx + u*u_x^2", *_WAVE)
    assert code == 0
    assert "multipliers found: 3" in out
    assert calls.calls == 7


def test_verify_computes_the_determining_expression_once(count_calls, capsys):
    # verify's own check is the only one for a verified multiplier; the
    # residual report is computed only when the law fails (2 calls before).
    from jetlaw import detsys

    calls = count_calls(detsys, "determining_expression")
    code, out = run(capsys, "verify", "--pde", "u_tt = u^2*u_xx + u*u_x^2",
                    "--multiplier", "u_t")
    assert code == 0 and out.endswith("PASS\n")
    assert calls.calls == 1


def test_zero_denominator_param_is_an_error(capsys):
    code = main(["derive", "--pde", KDV, "--param", "n=1/0", "--order", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --param")


@pytest.mark.parametrize("extra, message", [
    (["--param", "n"], "error: --param expects name=rational"),
    (["--atoms", "exp(u)+1"], "error: --atoms entries must be single atoms"),
    (["--atoms", "2*exp(u)"], "error: --atoms entries must be single atoms"),
    (["--order", "-1"], "error: bound '-1' must evaluate"),
    (["--order", "1/2"], "error: bound '1/2' must evaluate"),
    # The last --pde wins: a product of more than expr.MAX_PRODUCT_TERMS term
    # pairs, here a step of the repeated squaring at the ^ or the product at
    # the *, is refused before its arithmetic, at the operator's position
    # within the --pde text.
    (["--pde", "u_t = (u+u_x+u_xx)^120"],
     "error: expansion may hold 182325 terms, more than 50000 (at position 18)"),
    (["--pde", "u_t = (u_x+u_xx+u_xxx)^30*(u+u_xxxx+u_xxxxx)^30"],
     "error: expansion may hold 246016 terms, more than 50000 (at position 25)"),
    (["--pde", "u_t = (u+1)^100000*u_x"],
     "error: expansion may hold 100001 terms, more than 3001 (at position 11)"),
    # u^N is one term; the packing refuses its power.
    (["--pde", "u_t = u^1000000000*u_x"], "error: power 1000000000 of u is too large to pack"),
    (["--param", "n=1", "--param", "n=2"], "error: --param n is given twice"),
    (["--atoms", "u_x"], "error: --atoms entries must be single atoms"),
    # A power of a one-term base is one raw term under the binomial bound.
    (["--pde", "u_t = sin(u)^12004*u_x"],
     "error: expansion may hold 6003 terms, more than 3001 (at position 12)"),
])
def test_bad_derive_input_is_one_error_line(capsys, extra, message):
    code = main(["derive", "--pde", KDV] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(message) and err.count("\n") == 1


def test_scan_refuses_a_param_naming_the_scan_variable(capsys):
    # The scan would overwrite n=7 and report it in "params" all the same.
    code = main(["scan", "--pde", KDV, "--scan", "n=1..2", "--param", "n=7", "--order", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: --param n names the --scan variable\n"


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-6"])
def test_bad_numcheck_tolerance_is_one_error_line(capsys, tolerance):
    code = main(["numcheck", "--pde", KDV, "--order", "0", "--tolerance=" + tolerance])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --tolerance must be finite and nonnegative")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, argv", [
    ("m", ["scan", "--pde", KDV, "--scan", "m=1..2", "--order", "1"]),
    ("m", ["derive", "--pde", KDV, "--param", "m=7"]),
    ("", ["derive", "--pde", KDV, "--param", "=3"]),
    ("n", ["verify", "--pde", KDV, "--multiplier", "u", "--param", "n=1"]),
    ("n", ["numcheck", "--pde", KDV, "--order", "0", "--param", "n=1"]),
])
def test_parameter_no_input_reads_is_one_error_line(capsys, name, argv):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == "error: parameter %r is not read by any input\n" % name


@pytest.mark.parametrize("argv", [
    ["derive", "--pde", KDV, "--order", "n"],
    ["derive", "--pde", KDV, "--order", "0", "--deg-tx", "n"],
    ["derive", "--pde", KDV, "--order", "0", "--deg-u", "n"],
    ["derive", "--pde", KDV, "--order", "0", "--atoms", "exp(n*u)"],
    ["derive", "--pde", KDV, "--order", "0", "--utilde", "n"],
    ["verify", "--pde", KDV, "--multiplier", "n*u"],
])
def test_parameter_read_by_one_input_is_accepted(capsys, argv):
    assert main(argv + ["--param", "n=1"]) == 0


@pytest.mark.parametrize("spec", ["n", "n=1", "n=a..b", "n=1...2", "n=3..1"])
def test_bad_scan_range_is_one_error_line(capsys, spec):
    code = main(["scan", "--pde", "u_t + u^n*u_x + u_xxx = 0", "--scan", spec])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: --scan expects name=a..b, got %r\n" % spec


@pytest.mark.parametrize("name, argv", [
    ("t", ["derive", "--pde", "u_t = t*u_xx", "--param", "t=1"]),
    ("u", ["derive", "--pde", KDV, "--param", "u=0"]),
    ("t", ["scan", "--pde", "u_t = t*u_xx", "--scan", "t=1..2"]),
])
def test_parameter_named_as_a_grammar_symbol_is_one_error_line(capsys, name, argv):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == "error: parameter %r names a symbol of the grammar\n" % name


@pytest.mark.parametrize("spec, atoms", [
    ("pow(u + 1, -1/2)", ["pow(u + 1, -1/2)"]),
    ("exp(u), pow(u + 2, 1/2)", ["exp(u)", "pow(u + 2, 1/2)"]),
])
def test_atoms_split_only_at_commas_outside_parentheses(capsys, spec, atoms):
    code, out = run(capsys, "derive", "--pde", KDV, "--order", "1", "--atoms", spec,
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["ansatz"]["atoms"] == atoms


def test_high_degree_in_u_is_enumerated_without_recursion(capsys):
    code, out = run(capsys, "derive", "--pde", KDV, "--order", "0",
                    "--deg-u", "1200")
    assert code == 0
    assert "ansatz size: 1201" in out


def test_split_covers_only_the_jets_the_basis_uses(capsys):
    import time

    start = time.perf_counter()
    code, high = run(capsys, "derive", "--pde", KDV, "--format", "json",
                     "--order", "10", "--deg-tx", "1", "--deg-u", "0")
    assert time.perf_counter() - start < 5
    assert code == 0
    _, low = run(capsys, "derive", "--pde", KDV, "--format", "json",
                 "--order", "0", "--deg-tx", "1", "--deg-u", "0")
    assert json.loads(high)["laws"] == json.loads(low)["laws"]


def test_order_six_kdv_json_is_byte_identical(capsys):
    """Six verified KdV laws at order 6, frozen from the one-stage solve."""
    code, out = run(capsys, "derive", "--pde", KDV, "--order", "6", "--deg-tx", "1",
                    "--deg-u", "4", "--format", "json")
    assert code == 0
    laws = json.loads(out)["laws"]
    assert len(laws) == 6 and all(law["verified"] is True for law in laws)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "01e82772e8eac8e310eb7eb2e14514cf4826f76db18ec7991c4d3b0bf0716cc3"


def test_oversized_ansatz_is_one_error_line(capsys):
    import time

    start = time.perf_counter()
    code = main(["derive", "--pde", KDV, "--param", "n=100000", "--order", "n",
                 "--deg-u", "1"])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ansatz bounds give more than") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Seeded fuzz over malformed and extreme command lines.  Every input here
# terminates quickly; huge but valid bounds are left out on purpose, since
# they ask for a genuinely huge ansatz.

_FUZZ_PDES = [
    "u_t + u*u_x + u_xxx = 0", "u_tx = sin(u)", "u_tt = u^2*u_xx",
    "u_t = u_xx + u^n*u_x", "u_t = u$", "u_q = u", "u_t = 1.5*u", "u_t = = u",
    "", "=", "u_t", "u_t = exp(u^2)", "u_t = pow(u)", "u_t = u/0", "u_t = u/u",
    "u_t = u^u", "u_t = u^(1/2)", "u_t = u_t", "u_tt = u_ttx",
    "u_t = sin(u)^-1", "u_t = u_tx", "u_t^2 = u", "u_t = pow(u, 1/0)",
    "u_t = pow(0, -1)", "u_t = 0^0", "u_t = (u", "u_t = u)", "u_t = sin()",
    "u_t = foo(u)", "u_t = n*u_xx", "u_t = u_x^-1", "u_t = u_xx\x00",
    "u_t = é", "u_t = pow(-1, 1/2)", "/no/such/dir/eq.pde",
    "u_t = " + "(" * 2000 + "u" + ")" * 2000,
    "u_t = " + "-" * 3000 + "u_xx",
    "u_t = " + "exp(" * 300 + "u" + ")" * 300,
    "u_t = " + " + ".join(["u*u_x"] * 80),
    "x" * 5000,
]
_FUZZ_BOUNDS = ["0", "1", "2", "-1", "1/2", "n", "n+1", "u", "", "(", "2^-1",
                "x", "1/0", "10^30/10^30", "(" * 500 + "1" + ")" * 500]
_FUZZ_PARAMS = ["n=1", "n=2", "n", "n=", "n=1/0", "n=x", "=3", "n=-1",
                "n=1/2", "n==2", "n=nan", "n=inf"]
_FUZZ_ATOMS = ["exp(-1/2*u)", "u", "exp(u)*2", "x", "sin(u),,", "exp(u)+1",
               "", ",", "pow(u,1/2)", "cos(0)", "sin(u)^2",
               "exp(" * 200 + "u" + ")" * 200]
_FUZZ_SCANS = ["n=1..2", "n=1..", "n=a..b", "n", "n=2..1", "m=1..1", "..",
               "n=1...2"]
_FUZZ_MULTIPLIERS = ["u", "1", "u_x", "(" * 500 + "u" + ")" * 500, "u$",
                     "exp(u)", "Lam"]


def _fuzz_argv(rng):
    cmd = rng.choice(["derive", "verify", "density", "scan"])
    argv = [cmd, "--pde", rng.choice(_FUZZ_PDES)]
    if rng.random() < 0.5:
        argv += ["--param", rng.choice(_FUZZ_PARAMS)]
    if cmd in ("verify", "density"):
        argv += ["--multiplier", rng.choice(_FUZZ_MULTIPLIERS)]
    else:
        argv += ["--order", rng.choice(_FUZZ_BOUNDS[:6] + _FUZZ_BOUNDS[7:]),
                 "--deg-tx", rng.choice(_FUZZ_BOUNDS),
                 "--deg-u", rng.choice(_FUZZ_BOUNDS)]
        if rng.random() < 0.5:
            argv += ["--atoms", rng.choice(_FUZZ_ATOMS)]
        if cmd == "scan":
            argv += ["--scan", rng.choice(_FUZZ_SCANS)]
    if rng.random() < 0.2:
        argv += ["--utilde", rng.choice(["1", "u", "x", "(" * 900 + "1" + ")" * 900])]
    return argv


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as stop:
        # argparse exits with an int status; SystemExit("message") means 1.
        if stop.code is None or isinstance(stop.code, int):
            return stop.code or 0
        return 1


def test_cli_fuzz_exit_codes(capsys):
    import random
    import time

    rng = random.Random(20261018)
    start = time.perf_counter()
    codes = []
    for _ in range(200):
        argv = _fuzz_argv(rng)
        codes.append(_exit_code(argv))
        assert codes[-1] in (0, 1, 2), argv
        capsys.readouterr()
    assert time.perf_counter() - start < 10
    assert {0, 2} <= set(codes)


# The paper's KdV, wave-speed and Klein-Gordon tables as nine CLI calls, with
# the SHA-256 of their --format json output.  The digests pin the rendered
# laws byte for byte; they change only when an answer or its rendering does.
_ORDER2 = ["--order", "2", "--deg-tx", "1", "--deg-u", "n+1"]
_WAVE = ["--order", "1", "--deg-tx", "2", "--deg-u", "1"]
_KG = ["--order", "3", "--deg-tx", "1", "--deg-u", "3"]
GOLDEN_JSON = {
    "kdv scan n=1..4": (
        ["scan", "--pde", "u_t + u^n*u_x + u_xxx = 0", "--scan", "n=1..4"] + _ORDER2,
        "d5872968b412369e4a5e29c4448257b8190cef064668d303df5fad96308d9a99"),
    "wave c=u^-2": (
        ["derive", "--pde", "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2"] + _WAVE,
        "2638e8653ddcafc261aea058867e3e42423ac526923302132b56d6e9bc1de10e"),
    "wave c=u": (
        ["derive", "--pde", "u_tt = u^2*u_xx + u*u_x^2"] + _WAVE,
        "499d2b318cc5653134b8a73b0248fdaf14c9ba48ed41349836b56d4cba7cecf1"),
    "wave c=e^u": (
        ["derive", "--pde", "u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2",
         "--atoms", "exp(-1/2*u)"] + _WAVE,
        "2e213b1aa8543eaa5a994053c51765d4e25ea31c49abf810c169348886e6d62f"),
    "kg sin": (
        ["derive", "--pde", "u_tx = sin(u)"] + _KG,
        "0993560466544149fe0de0004278b848251739bc40943c80e56a7c63275546b8"),
    "kg sinh": (
        ["derive", "--pde", "u_tx = exp(u) + exp(-u)"] + _KG,
        "5c10f18f140da5e81911917695bcca876ba8fec751b638bb26fb174fe36b0b79"),
    "kg liouville": (
        ["derive", "--pde", "u_tx = exp(u)"] + _KG,
        "f17cc1d3c3ec043b54d7b8ba136a658a044334f0b4b0b361c09cccad33105a98"),
    "kg u^2": (
        ["derive", "--pde", "u_tx = u^2"] + _KG,
        "23bdf6a7c20f98de6abab7facce15841ea1b609852848f1964487405539f363b"),
    "kg u^3": (
        ["derive", "--pde", "u_tx = u^3"] + _KG,
        "40a14fe0ed234194cfb0072b1fc39c6542d2bcd7bacf4a50fc84e81b2f3b4997"),
}


@pytest.mark.parametrize("name", GOLDEN_JSON)
def test_classification_json_is_byte_identical(capsys, name):
    argv, digest = GOLDEN_JSON[name]
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Four numcheck calls, one per --initial profile, over the three supported
# shapes, with the SHA-256 of their --format json output.  The digests pin
# every drift bit for bit; they change only when the start profiles, the
# integrator's arithmetic or the report's rendering does.
NUMCHECK_JSON = {
    "kdv periodic": (
        ["--pde", KDV, "--order", "2", "--deg-tx", "0", "--deg-u", "2",
         "--grid-n", "256", "--dt", "3e-4", "--length", "40", "--horizon", "0.1"],
        "20a6f32e180f928621059a4ddd9bcf7d943d55e067480741b69dc7a963210b54"),
    "wave c=u^-2 bumps": (
        ["--pde", "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2", "--order", "1",
         "--deg-tx", "2", "--deg-u", "1", "--initial", "bumps", "--length", "20",
         "--dt", "2e-2", "--horizon", "1"],
        "f4863d2f0488fde0289b0c3413ba7d7ade962185a0628658ad980b0b67ff0687"),
    "sine-gordon harmonics": (
        ["--pde", "u_tx = sin(u)", "--order", "3", "--deg-tx", "0", "--deg-u", "3",
         "--initial", "harmonics", "--length", "6.283185307179586", "--grid-n", "128",
         "--dt", "5e-2", "--horizon", "1"],
        "7a3e84b6ab34a8934830d4645d554b23fcae09b1a8ef3aa5457af011b4c774ab"),
    "kdv soliton": (
        ["--pde", KDV, "--order", "2", "--deg-tx", "0", "--deg-u", "2", "--initial", "soliton",
         "--grid-n", "128", "--dt", "1e-3", "--horizon", "0.1"],
        "bf7544c58985750e531193a66629079dbbe9ba08ef08d3855562bfa1f135de38"),
}


@pytest.mark.parametrize("name", NUMCHECK_JSON)
def test_numcheck_json_is_byte_identical(capsys, name):
    argv, digest = NUMCHECK_JSON[name]
    code, out = run(capsys, "numcheck", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

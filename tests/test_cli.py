"""Command-line interface: reports, JSON schema, exit codes."""

import json

import pytest

from jetlaw.cli import main
from jetlaw.parser import parse_expression as P


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
    from jetlaw.linsolve import in_span
    assert in_span(target, lams)


def test_scan_dimensions(capsys):
    code, out = run(capsys, "scan", "--pde", "u_t + u^n*u_x + u_xxx = 0",
                    "--scan", "n=1..4", "--order", "2", "--deg-tx", "1",
                    "--deg-u", "n+1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimensions"] == {"n=1": 4, "n=2": 4, "n=3": 3, "n=4": 3}


def test_verify_liouville_instance(capsys):
    code, out = run(capsys, "verify", "--pde", "u_tx = exp(u)",
                    "--multiplier", "1 + x*u_x")
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

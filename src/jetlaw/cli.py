"""Command-line front end.

Subcommands: derive, verify, density, scan, numcheck.  Expressions in
reports are rendered in the input grammar, so outputs can be piped back in.
Exit code 0 only when every requested law verifies; 2 on bad input or an
unwritable --out; 141 (128 + SIGPIPE), silently, when stdout is closed.

It holds no numeric code: numcheck and its array library are imported
only when the numcheck subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .expr import ExprError, JetExpression
from .parser import _single_atom, _tokenize, parse_expression, render
from .pde import parse_pde
from .linsolve import AnsatzBounds, solve_multipliers
from .laws import build_law, flux_density, homotopy_density
from .detsys import determining_expression


class InputError(ExprError):
    """A command-line value that is not of the expected form."""


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InputError("--param expects name=rational, got %r" % pair)
        name, value = pair.split("=", 1)
        name = name.strip()
        if name in params:
            raise InputError("--param %s is given twice" % name)
        try:
            params[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError("--param expects name=rational, got %r" % pair) from None
    return params


def _top_level_chunks(spec):
    """spec split at the commas outside parentheses."""
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(spec):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            chunks.append(spec[start:i])
            start = i + 1
    return chunks + [spec[start:]]


def _parse_atoms(spec, params):
    atoms = []
    for chunk in filter(None, (s.strip() for s in _top_level_chunks(spec or ""))):
        single = _single_atom(parse_expression(chunk, params))
        if single is None or single[0] != 1:
            raise InputError("--atoms entries must be single atoms, got %r" % chunk)
        atoms.append(single[1])
    return tuple(atoms)


def _pde_text(args):
    path = Path(args.pde)
    try:
        is_file = path.is_file()
    except OSError:  # not usable as a path (too long, say): inline text
        is_file = False
    return path.read_text().strip() if is_file else args.pde


def _eval_bound(text, params):
    """Integer bound, possibly an expression in the parameters (e.g. n+1)."""
    value = parse_expression(str(text), params).as_fraction()
    if value.denominator != 1 or value < 0:
        raise InputError("bound %r must evaluate to a nonnegative integer" % text)
    return int(value)


def _bounds(args, params):
    return AnsatzBounds(
        order=_eval_bound(args.order, params),
        deg_tx=_eval_bound(args.deg_tx, params),
        deg_u=_eval_bound(args.deg_u, params),
        atoms=_parse_atoms(args.atoms, params),
    )


def _check_params_read(params, texts):
    """Refuse a parameter that none of the input texts reads."""
    read = {value for text in texts if text
            for kind, value, _ in _tokenize(str(text)) if kind == "name"}
    for name in params:
        if name not in read:
            raise InputError("parameter %r is not read by any input" % name)


def _emit(args, payload, text_lines):
    if args.format == "json":
        body = json.dumps(payload, indent=2, sort_keys=True)
    else:
        body = "\n".join(text_lines)
    if args.out:
        Path(args.out).write_text(body + "\n")
    else:
        print(body)


class UnsoundMultiplier(ExprError):
    """The solver returned a multiplier that fails the determining equation."""


def _gated_law(pde, lam, utilde):
    """(law, residual): build_law's law for lam, and E_u(G * Lam) if nonzero,
    computed only when build_law raises (raised again for a multiplier) or the
    law does not verify, since verify's first check is that it vanishes."""
    try:
        cl = build_law(pde, lam, utilde)
    except ExprError:
        residual = determining_expression(pde, lam)
        if residual.is_zero():
            raise
        return None, residual
    if cl.verified:
        return cl, None
    residual = determining_expression(pde, lam)
    return cl, None if residual.is_zero() else residual


def _derive_laws(args, params, text):
    """Parse the PDE, the ansatz bounds and the reference state, in that
    order, refuse a parameter none of them reads, then derive every
    multiplier in the ansatz and its gated law."""
    pde = parse_pde(text, params)
    bounds = _bounds(args, params)
    utilde = parse_expression(args.utilde, params)
    _check_params_read(params, (text, args.order, args.deg_tx, args.deg_u, args.atoms,
                                args.utilde))
    ansatz, multipliers = solve_multipliers(pde, bounds)
    laws = []
    for lam in multipliers:
        cl, residual = _gated_law(pde, lam, utilde)
        if residual is not None:
            raise UnsoundMultiplier("solver emitted a non-multiplier: %s" % render(lam))
        laws.append(cl)
    return pde, bounds, ansatz, laws


def _ansatz_record(bounds):
    return {
        "order": bounds.order,
        "deg_tx": bounds.deg_tx,
        "deg_u": bounds.deg_u,
        "atoms": [render(JetExpression.atom(a)) for a in bounds.atoms],
    }


def cmd_derive(args):
    params = _parse_params(args.param)
    pde, bounds, ansatz, laws = _derive_laws(args, params, _pde_text(args))
    payload = {
        "pde": str(pde),
        "params": {k: str(v) for k, v in params.items()},
        "ansatz": _ansatz_record(bounds),
        "laws": [cl.to_record() for cl in laws],
        "dimensions": {"": len(laws)},
    }
    lines = ["pde: %s" % pde, "ansatz size: %d" % len(ansatz.basis),
             "multipliers found: %d" % len(laws)]
    for cl in laws:
        lines.append("  lambda  = %s" % render(cl.multiplier))
        lines.append("    phi_t = %s" % render(cl.density_t))
        lines.append("    phi_x = %s" % render(cl.density_x))
        lines.append("    verified: %s" % cl.verified)
    _emit(args, payload, lines)
    return 0 if all(cl.verified for cl in laws) else 1


def _pde_and_multiplier(args):
    """The params, the PDE, the multiplier and the reference state of verify
    and density, parsed in that order; a parameter none of them reads is
    refused."""
    params = _parse_params(args.param)
    text = _pde_text(args)
    pde = parse_pde(text, params)
    lam = parse_expression(args.multiplier, params)
    utilde = parse_expression(args.utilde, params)
    _check_params_read(params, (text, args.multiplier, args.utilde))
    return params, pde, lam, utilde


def cmd_verify(args):
    params, pde, lam, utilde = _pde_and_multiplier(args)
    cl, residual = _gated_law(pde, lam, utilde)
    if residual is not None:
        payload = {"pde": str(pde), "lambda": render(lam), "verified": False,
                   "residual": render(residual)}
        _emit(args, payload, ["lambda = %s" % render(lam),
                              "FAIL: determining residual %s" % render(residual)])
        return 1
    payload = {"pde": str(pde), "params": {k: str(v) for k, v in params.items()},
               "laws": [cl.to_record()]}
    _emit(args, payload, ["lambda = %s" % render(lam),
                          "phi_t  = %s" % render(cl.density_t),
                          "phi_x  = %s" % render(cl.density_x),
                          "PASS" if cl.verified else "FAIL"])
    return 0 if cl.verified else 1


def cmd_density(args):
    _, pde, lam, utilde = _pde_and_multiplier(args)
    phi_t = homotopy_density(pde, lam, utilde)
    phi_x = flux_density(pde, phi_t)
    payload = {"pde": str(pde), "lambda": render(lam),
               "phi_t": render(phi_t), "phi_x": render(phi_x),
               "utilde": render(utilde)}
    _emit(args, payload, ["phi_t = %s" % render(phi_t),
                          "phi_x = %s" % render(phi_x)])
    return 0


def _parse_scan(spec):
    name, _, rng = spec.partition("=")
    lo, _, hi = rng.partition("..")
    try:
        lo, hi = int(lo), int(hi)
        if lo <= hi:
            return name.strip(), lo, hi
    except ValueError:
        pass
    raise InputError("--scan expects name=a..b, got %r" % spec)


def cmd_scan(args):
    base_params = _parse_params(args.param)
    name, lo, hi = _parse_scan(args.scan)
    if name in base_params:
        raise InputError("--param %s names the --scan variable" % name)
    text = _pde_text(args)
    dimensions = {}
    all_laws = []
    lines = []
    ok = True
    for value in range(lo, hi + 1):
        params = dict(base_params)
        params[name] = Fraction(value)
        _, _, _, laws = _derive_laws(args, params, text)
        key = "%s=%d" % (name, value)
        dimensions[key] = len(laws)
        all_laws.extend(cl.to_record() | {"scan": key} for cl in laws)
        ok = ok and all(cl.verified for cl in laws)
        lines.append("%s: dimension %d" % (key, len(laws)))
        for cl in laws:
            lines.append("    %s" % render(cl.multiplier))
    payload = {"pde": text, "params": {k: str(v) for k, v in base_params.items()},
               "ansatz": {"order": str(args.order), "deg_tx": str(args.deg_tx),
                          "deg_u": str(args.deg_u), "atoms": args.atoms or ""},
               "laws": all_laws, "dimensions": dimensions}
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_numcheck(args):
    from . import numcheck as nc  # here, so no other subcommand loads it
    if not 0 <= args.tolerance < math.inf:
        raise InputError("--tolerance must be finite and nonnegative, got %r"
                         % args.tolerance)
    params = _parse_params(args.param)
    pde, _, _, laws = _derive_laws(args, params, _pde_text(args))
    cfg = nc.GridConfig(length=args.length, n=args.grid_n, dt=args.dt,
                        t_end=args.horizon)
    traj = nc.integrate_pde(pde, nc.initial_state(pde, args.initial, cfg), cfg)
    out = args.out and Path(args.out)
    if out:
        out.mkdir(parents=True, exist_ok=True)
    lines = []
    rows_out = []
    worst = 0.0
    for i, cl in enumerate(laws):
        series = nc.quantity_series(cl, traj)
        drift = max(r[2] for r in series)
        worst = max(worst, drift)
        lines.append("law %d  lambda=%s  drift=%.3e" % (i, render(cl.multiplier), drift))
        rows_out.append({"law": render(cl.multiplier), "drift": drift,
                         "series": [{"t": t, "Q": q, "drift": d} for t, q, d in series]})
        if out:
            (out / ("law%02d.csv" % i)).write_text(
                "t,Q,drift\n" + "".join("%.12g,%.12g,%.12g\n" % row for row in series))
    payload = {"pde": str(pde), "config": {"length": cfg.length, "n": cfg.n,
               "dt": cfg.dt, "t_end": cfg.t_end}, "laws": rows_out}
    if out:
        (out / "run.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print("\n".join(lines))
    else:
        _emit(args, payload, lines)
    return 0 if worst <= args.tolerance else 1


def _add_common(p, ansatz=True):
    p.add_argument("--pde", required=True, help="PDE text or path to a file")
    p.add_argument("--param", action="append", metavar="k=v",
                   help="named rational parameter (repeatable)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--utilde", default="0",
                   help="reference state for the homotopy (default 0)")
    if ansatz:
        p.add_argument("--order", default="1", help="highest jet order p of the ansatz")
        p.add_argument("--deg-tx", default="0", dest="deg_tx",
                       help="total degree in t,x (may use parameters, e.g. n+1)")
        p.add_argument("--deg-u", default="1", dest="deg_u",
                       help="total degree in u and derivatives (may use parameters)")
        p.add_argument("--atoms", help="comma-separated kernel atoms, e.g. exp(-1/2*u)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="jetlaw",
        description="exact conservation-law derivation and verification for scalar PDEs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive all multipliers in an ansatz and their laws")
    _add_common(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("verify", help="verify a single multiplier end to end")
    _add_common(p, ansatz=False)
    p.add_argument("--multiplier", "--lambda", dest="multiplier", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("density", help="reconstruct phi_t, phi_x for a multiplier")
    _add_common(p, ansatz=False)
    p.add_argument("--multiplier", "--lambda", dest="multiplier", required=True)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("scan", help="re-run derive over an integer parameter range")
    _add_common(p)
    p.add_argument("--scan", required=True, metavar="k=a..b")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("numcheck", help="integrate the PDE and report conserved drift")
    _add_common(p)
    p.add_argument("--grid-n", type=int, default=256, dest="grid_n")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--length", type=float, default=40.0)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--initial", default="periodic",
                   choices=("periodic", "soliton", "bumps", "harmonics"))
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(fn=cmd_numcheck)

    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone: exit as a writer killed by SIGPIPE,
        # silently, and let the interpreter's last flush write to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ExprError, ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

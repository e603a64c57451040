"""Answer key for the benchmark, and the exact checks that apply it.

Nothing here is computed by jetlaw.  Dimensions and named multipliers come
from the source paper's classification tables, the literature they cite, and
the acceptance suite's criteria 1-3 and 7:

* generalized KdV u_t + u^n u_x + u_xxx = 0 at order 2: mass 1, momentum u,
  energy u_xx + u^(n+1)/(n+1) for every n, plus the Galilean law t*u - x at
  n = 1 and t*(u_xx + u^3/3) - x*u/3 at n = 2;
* at order 4, KdV (n = 1) gains the next member of its hierarchy, the
  gradient of the fourth conserved density; written for v = u/6, which solves
  v_t + 6 v v_x + v_xxx = 0, it is 10 v^3 + 5 v_x^2 + 10 v v_xx + v_xxxx;
* wave speed c(u) in u_tt = (c^2 u_x)_x: six multipliers at c = u^-2
  (translations, scaling, and the two projective laws), three otherwise;
* Klein-Gordon u_tx = f(u) at order 3: two for sine- and sinh-Gordon, one
  for u^2 and u^3; for Liouville f = e^u every multiplier g(x)*u_x + g'(x)
  and g(x)*xi + g'(x)*w with w = u_xx - u_x^2/2, xi = D_x w + u_x w =
  u_xxx - u_x^3/2 (from the x-integral w), so g in {1, x} gives four;
  sine-Gordon keeps its two at order 4;
* numerical drift: every law at most FINEST_TOL, every negative control at
  least CONTROL_MIN, the acceptance suite's criterion-7 constants.

Span membership is decided by sympy's exact rank of the matrix of term
coefficients, not by jetlaw's own elimination, so a bug there cannot hide.
sympy is imported only when a check runs, after the workload is measured.
"""

from __future__ import annotations

FINEST_TOL = 1e-6
CONTROL_MIN = 1e-3

_KDV_BASE = ["1", "u"]


def _kdv_members(n: int) -> list:
    members = _KDV_BASE + ["u_xx + u**%d/%d" % (n + 1, n + 1)]
    if n == 1:
        members.append("t*u - x")
    if n == 2:
        members.append("t*(u_xx + u**3/3) - x*u/3")
    return members


_WAVE_BASIC = ["u_t", "u_x", "t*u_t + x*u_x"]
_LIOUVILLE = ["u_x", "1 + x*u_x", "u_xxx - u_x**3/2",
              "x*(u_xxx - u_x**3/2) + u_xx - u_x**2/2"]

# case -> (dimension, members that must lie in the returned span)
CLASSIFY = {
    "kdv n=1": (4, _kdv_members(1)),
    "kdv n=2": (4, _kdv_members(2)),
    "kdv n=3": (3, _kdv_members(3)),
    "kdv n=4": (3, _kdv_members(4)),
    "wave c=u^-2": (6, _WAVE_BASIC + ["t**2*u_t - t*u", "x**2*u_x + x*u",
                                      "t*u_t - x*u_x - u"]),
    "wave c=u": (3, _WAVE_BASIC),
    "wave c=e^u": (3, _WAVE_BASIC),
    "kg sin": (2, ["u_x", "u_xxx + u_x**3/2"]),
    "kg sinh": (2, ["u_x", "u_xxx - u_x**3/2"]),
    "kg liouville": (4, _LIOUVILLE),
    "kg u^2": (1, ["u_x"]),
    "kg u^3": (1, ["u_x"]),
}

SCALE = {
    "kdv order 4": (5, _kdv_members(1)
                    + ["u_xxxx + 5*u*u_xx/3 + 5*u_x**2/6 + 5*u**3/18"]),
    "sine-gordon order 4": (2, ["u_x", "u_xxx + u_x**3/2"]),
    "liouville order 4": (4, _LIOUVILLE),
}


def _sympy_expr(text: str):
    """Parse key or jetlaw output text (which uses ^ and pow) with sympy."""
    import sympy
    from sympy.parsing.sympy_parser import (
        convert_xor, parse_expr, standard_transformations)
    names = {"pow": sympy.Pow, "exp": sympy.exp, "sin": sympy.sin, "cos": sympy.cos}
    return parse_expr(text, local_dict=names,
                      transformations=standard_transformations + (convert_xor,))


def span_rank(texts) -> int:
    """Exact rank of the span of the expressions, over the rationals."""
    import sympy
    rows = [sympy.expand(_sympy_expr(t)).as_coefficients_dict() for t in texts]
    rows = [r for r in rows if any(c != 0 for c in r.values())]
    if not rows:
        return 0
    monomials = sorted(set().union(*rows), key=sympy.default_sort_key)
    return sympy.Matrix([[r.get(m, 0) for m in monomials] for r in rows]).rank()


def check_span(case: str, key: dict, multipliers, verified) -> list:
    """Problems with one case's multipliers, as messages; [] when correct."""
    dimension, members = key[case]
    problems = []
    if len(multipliers) != dimension:
        problems.append("%s: dimension %d, expected %d"
                        % (case, len(multipliers), dimension))
    if not all(verified):
        problems.append("%s: %d of %d laws not verified"
                        % (case, verified.count(False), len(verified)))
    rank = span_rank(multipliers)
    if rank != len(multipliers):
        problems.append("%s: multipliers are linearly dependent" % case)
    for member in members:
        if span_rank(list(multipliers) + [member]) != rank:
            problems.append("%s: known multiplier %s outside the span"
                            % (case, member))
    return problems


def check_drifts(case: str, law_drifts, control_drifts) -> list:
    problems = []
    for i, d in enumerate(law_drifts):
        if not d <= FINEST_TOL:
            problems.append("%s: law %d drift %.3e above %.0e" % (case, i, d, FINEST_TOL))
    for i, d in enumerate(control_drifts):
        if not d >= CONTROL_MIN:
            problems.append("%s: control %d drift %.3e below %.0e"
                            % (case, i, d, CONTROL_MIN))
    return problems

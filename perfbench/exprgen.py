"""Seeded random jet expressions for the operator-identity workload.

The generator is the benchmark's own, so jetlaw only ever receives finished
expressions.  A draw is plain data: a tuple of terms, each a rational
coefficient and a tuple of (factor, power) pairs, where a factor is "t", "x",
a jet coordinate (a, b) meaning d_t^a d_x^b u, or the name of a kernel atom
from ATOMS.

The shape of a draw is fixed: the number of terms, of jet factors per term,
of terms with an explicit t or x, and of terms with an atom.  Only the jet
orders, coefficients and choices among equals are random, and the atoms
rotate through ATOMS.  Euler-operator cost grows with the degree and the
number of atoms, so a fixed shape keeps the cost of a pass nearly the same
from one seed to the next.
"""

from __future__ import annotations

import random
from fractions import Fraction

# exp(u), sin(u), cos(u) and (u - 2)^-1, the kernel atoms of the property
# suite; workloads.to_expression maps the names onto jetlaw atoms.
ATOMS = ("exp", "sin", "cos", "pow")


def draw_terms(rng: random.Random, n_terms: int, n_jets: int, max_order: int,
               n_atoms: int = 0, atom_start: int = 0, pure_x: bool = False) -> tuple:
    """One expression of n_terms raw terms, each with n_jets jet factors.

    Every third term also carries t or x; the first n_atoms terms carry one
    atom each, taken in turn from ATOMS starting at atom_start.
    """
    terms = []
    for i in range(n_terms):
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
        factors: dict = {}
        for _ in range(n_jets):
            b = rng.randint(0, max_order)
            k = (0, b) if pure_x else (rng.randint(0, max_order - b), b)
            factors[k] = factors.get(k, 0) + 1
        if i % 3 == 2 and not pure_x:
            factors[rng.choice(("t", "x"))] = 1
        if i < n_atoms:
            factors[ATOMS[(atom_start + i) % len(ATOMS)]] = 1
        terms.append((coeff, tuple(sorted(factors.items(), key=repr))))
    return tuple(terms)


# Draws per identity and pass.  The fast identities outnumber the slow Euler
# check so that the median operation falls inside one identity's spread
# (totals_commute) rather than on the gap between two of them.
DRAWS = {"euler_kills_divergence": 30, "totals_commute": 40,
         "homotopy_linear": 20, "ibp_round_trip": 20}


def draw_pass(seed: int, pass_index: int) -> dict:
    """The inputs of one pass, DRAWS[identity] items for each identity.

    Every pass of a run gets fresh draws, so no pass repeats the inputs of an
    earlier one; the same (seed, pass_index) always gives the same inputs.
    """
    rng = random.Random("operators:%d:%d" % (seed, pass_index))
    return {
        "euler_kills_divergence": [
            draw_terms(rng, 5, 3, 3, n_atoms=2, atom_start=j)
            for j in range(DRAWS["euler_kills_divergence"])],
        "totals_commute": [
            draw_terms(rng, 6, 3, 4, n_atoms=2, atom_start=j)
            for j in range(DRAWS["totals_commute"])],
        "homotopy_linear": [
            (draw_terms(rng, 3, 2, 2, pure_x=True),
             draw_terms(rng, 3, 2, 2, pure_x=True),
             Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3)))
            for _ in range(DRAWS["homotopy_linear"])],
        "ibp_round_trip": [
            draw_terms(rng, 5, 2, 3, n_atoms=2, atom_start=j)
            for j in range(DRAWS["ibp_round_trip"])],
    }

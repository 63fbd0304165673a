"""Oscillation decay of elliptic solutions with rough coefficients.

Solves the divergence-form equation over checkerboard coefficient fields
at two ellipticity contrasts, fits the decay exponent of the dyadic
oscillation profile around the origin, and prints the per-instance fits.
Smoother fields should sit near exponent 1; rougher fields drift lower
but stay strictly positive, which is the regularity statement in
quantitative form.
"""

import numpy as np

from kinlab.gridfn import Axis
from kinlab import solvers as sv
from kinlab import degiorgi as dg


def run_instance(lam, seed, n=176):
    rng = np.random.default_rng(seed)
    axes = [Axis("x", -1.1, 1.1, n), Axis("x", -1.1, 1.1, n)]
    coef = sv.make_coefficients({"kind": "checkerboard", "lam": lam,
                                 "Lam": 1.0, "tiles": 8}, seed=seed)
    a = rng.uniform(-1, 1, 3)
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=coef,
                   boundary=lambda p: a[0] + a[1] * p[..., 0]
                   + a[2] * p[..., 1], source=0.0)
    sol = sv.solve_elliptic(P)
    return dg.oscillation_profile(sol.u, (0.0, 0.0), k_max=6)


def main():
    for lam in (0.5, 0.2):
        print(f"checkerboard coefficients, lambda/Lambda = {lam}")
        for seed in range(4):
            prof = run_instance(lam, seed)
            oscs = ", ".join(f"{o:.3f}" for o in prof.oscillations)
            print(f"  seed {seed}: alpha {prof.alpha:.3f}  "
                  f"constant {prof.constant:.3f}  oscillations [{oscs}]")


if __name__ == "__main__":
    main()

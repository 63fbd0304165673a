"""Evolve the fundamental kernel with the kinetic solver and compare.

The split-step solver with identity diffusion, no drift and no source
should reproduce the exact kernel at a later time.  We start from the
kernel profile at t0, run a few coarse time steps, and print the relative
L1 error together with the observed temporal convergence order.
"""

import numpy as np

from kinlab.gridfn import Axis, GridFunction
from kinlab import kernel as ker
from kinlab import solvers as sv


def main():
    t0, T = 0.2, 0.05
    axes = [Axis("x", -0.35, 0.35, 128), Axis("v", -3.0, 3.0, 128)]
    X, V = np.meshgrid(axes[0].centers(), axes[1].centers(), indexing="ij")
    f0 = ker.gamma(t0, X[..., None], V[..., None])
    exact = ker.gamma(t0 + T, X[..., None], V[..., None])
    coef = sv.make_coefficients({"kind": "identity", "lam": 1.0, "Lam": 1.0})

    print(f"evolving the kernel from t={t0} to t={t0 + T}")
    errs = []
    for nt in (2, 4, 8):
        P = sv.Problem(kind="kinetic-fp", axes=axes, coefficients=coef,
                       initial=GridFunction(axes, f0), source=0.0,
                       t_final=T, nt=nt)
        sol = sv.solve_kinetic_fp(P)
        err = float(np.abs(sol.u.values - exact).sum() / np.abs(exact).sum())
        errs.append(err)
        print(f"  nt={nt:2d}  relative L1 error {100 * err:.2f}%  "
              f"mass drift {sol.info['mass_drift']:+.2e}")
    order = np.log2((errs[0] - errs[1]) / (errs[1] - errs[2]))
    print(f"difference-based temporal order: {order:.2f}")


if __name__ == "__main__":
    main()

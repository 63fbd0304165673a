"""Measure-theoretic covering demonstration on rasterized cylinder sets.

Synthesizes admissible set pairs (E, F) in parabolic and kinetic
geometry, where F must absorb the stacks of every cylinder that E more
than half fills, and checks the resulting measure inequality
|E| <= (m+1)/m (1-c) (|F cap Q1| + C m r0^2) on the raster.
"""

import numpy as np

from kinlab import covering as cov


def main():
    rng = np.random.default_rng(0)
    for geometry, kwargs in (("parabolic", {"cells_per_unit": 96}),
                             ("kinetic", {"cells_per_unit": 48,
                                          "stride": 2})):
        print(f"{geometry} geometry")
        for m in (1, 2, 4):
            E, F = cov.synthesize_ink_spots_instance(geometry, m, 1.0, rng,
                                                     **kwargs)
            check_kwargs = {"stride": 2} if geometry == "kinetic" else {}
            rep = cov.ink_spots_check(E, F, geometry, m, 1.0, **check_kwargs)
            tag = "ok" if rep.passed else "VIOLATED"
            print(f"  m={m}: |E| {rep.measure_E:.4f}  rhs {rep.rhs:.4f}  "
                  f"hypothesis {'ok' if rep.hypothesis_ok else 'FAILED'}  "
                  f"inequality {tag}")


if __name__ == "__main__":
    main()

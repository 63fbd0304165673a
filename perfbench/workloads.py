"""The benchmark's workloads: one `lab` command and config each, and the
checks whose headroom makes up `min_margin`.

Every config is derived from the benchmark seed alone, and the seed itself
is passed to `lab` as the config `seed`.  See README.md for why each
workload exists.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Margin:
    """Headroom of one numeric field of a report.json check record.

    `check` names the record; a name ending in "*" matches every record
    whose name starts with the rest.  The headroom is (bound - value) for a
    value that must stay below its bound, (value - bound) otherwise, in
    units of `scale` (default: |bound|).  A string bound names the record
    field that holds it.  With `target` set the value is the field's
    distance from it.
    """
    check: str
    field: str
    bound: object
    below: bool
    scale: float = 0.0
    target: float = None

    def headrooms(self, records):
        out = []
        for rec in records:
            name = rec.get("check", "")
            hit = (name.startswith(self.check[:-1]) if self.check.endswith("*")
                   else name == self.check)
            if not hit:
                continue
            value = rec.get(self.field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue  # e.g. the "sentinel" alpha of constant data
            if self.target is not None:
                value = abs(value - self.target)
            bound = rec[self.bound] if isinstance(self.bound, str) else self.bound
            scale = self.scale or abs(bound)
            gap = bound - value if self.below else value - bound
            out.append(gap / scale)
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base_config: dict
    margins: tuple

    def config(self, seed):
        cfg = dict(self.base_config, seed=int(seed))
        if self.command == "verify-kernel":
            cfg["young_pairs"] = young_pairs_for(seed, YOUNG_CONVOLUTIONS)
        return cfg

    def min_margin(self, records):
        """Smallest headroom over the workload's margin list; None if the
        report carries none of the listed fields."""
        values = [h for m in self.margins for h in m.headrooms(records)]
        return min(values) if values else None


# `lab verify-kernel` draws Young pairs from the config seed and skips a pair
# unless 1/p + 1/q > 1, so a fixed `young_pairs` gives a Binomial(n, 0.55)
# number of group convolutions and a wall time that swings by a third from
# seed to seed.  The workload instead asks for exactly this many convolutions
# and sets `young_pairs` to the pair index that reaches them, replaying the
# command's draws: per pair two (6, 20, 20) normal grids and (p, q) uniform on
# [1.1, 3), plus one more uniform for an admitted pair.  Every repetition
# checks the replay against the `kin_convolve` calls that child.py counts.
YOUNG_CONVOLUTIONS = 1
YOUNG_GRID = (6, 20, 20)


def young_pairs_for(seed, convolutions):
    rng = np.random.default_rng(seed)
    pairs = admitted = 0
    while admitted < convolutions:
        rng.normal(size=YOUNG_GRID)
        rng.normal(size=YOUNG_GRID)
        p, q = rng.uniform(1.1, 3.0, 2)
        pairs += 1
        if 1 / p + 1 / q - 1 > 0:
            admitted += 1
            rng.uniform(1.1, 4.0)
    return pairs


DISTANCE_TOL = 1e-6        # verify-geometry default `tol`
OPTIMALITY_TOL = 1e-4      # verify-geometry default `optimality_tol`

WORKLOADS = {w.name: w for w in (
    Workload("kernel-young", "verify-kernel", {}, (
        Margin("kernel_mass", "error", 1e-8, below=True),
        Margin("residual_order", "order", 1.8, below=False),
        Margin("adjoint_identity", "relative_error", 0.02, below=True),
    )),
    Workload("ink-spots", "covering", {"ink_spots": 2}, (
        Margin("maximal_weak11", "worst_constant", "bound", below=True),
    )),
    Workload("elliptic-rough", "holder-scan", {"n": 224, "instances": 4}, (
        Margin("instance_*", "alpha", 0.0, below=False, scale=1.0),
    )),
    Workload("kinetic-rough", "harnack",
             {"instances": 24, "nx": 128, "nv": 96, "nt": 128,
              "coefficient": "checkerboard", "lam": 0.2}, (
        Margin("instance_*", "quotient", 1.0, below=False),
    )),
    Workload("distance", "verify-geometry", {"samples": 8000}, (
        Margin("distance_bounds", "max_lower_violation", DISTANCE_TOL, below=True),
        Margin("distance_bounds", "max_upper_violation", DISTANCE_TOL, below=True),
        Margin("triangle_inequality", "max_violation", 3 * DISTANCE_TOL, below=True),
        Margin("optimality_instances", "d_half", OPTIMALITY_TOL, below=True,
               target=0.5),
        Margin("optimality_instances", "d_one", OPTIMALITY_TOL, below=True,
               target=1.0),
    )),
)}

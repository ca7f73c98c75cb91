#!/usr/bin/env python3
"""Detection-region and measure data for the 3x3 bound entangled family.

Writes two CSV files:

* ``measures.csv``: C_LUR and C_TLUR versus the family parameter a at p = 1,
  using the conjugate-paired generator sets (the tightened estimate is the
  larger one everywhere).
* ``regions.csv``: per-(a, p) verdicts of the plain and tightened variance
  criteria with state-adapted Schmidt observables on the white-noise mixture.

It then prints, per a, the noise threshold p* above which LUR, TLUR (both on
Schmidt observables) and CCNR detect, bisected on [0, 1] to 1e-6: the flips
lie in [0.994, 1], which the default p step of 0.01 cannot resolve.
"""

import argparse
import pathlib

from tlurkit import (
    GridAxis, bisect_threshold, entanglement_measures, horodecki33, su_pair, sweep,
)
from tlurkit.errors import NoCrossingError

BOUNDARY_CRITERIA = ("lur", "tlur", "ccnr")
BOUNDARY_TOL = 1e-6


def threshold(a: float, criterion: str) -> str:
    """p* of one criterion in the row a, or '-' when it never fires on [0, 1]."""
    try:
        p = bisect_threshold("horodecki_noise", "p", 0.0, 1.0, criterion,
                             obs_spec="schmidt_loo_pair", tol=BOUNDARY_TOL,
                             fixed_params={"a": a})
    except NoCrossingError:
        return "   -    "
    return f"{p:.6f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="fig1_data")
    parser.add_argument("--step-a", type=float, default=0.05)
    parser.add_argument("--step-p", type=float, default=0.01)
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    obs = su_pair(3)
    a_axis = GridAxis("a", 0.05, 0.95, args.step_a)
    lines = ["a,c_lur,c_tlur"]
    for a in a_axis.values():
        c_lur, c_tlur = entanglement_measures(horodecki33(a), obs)
        lines.append(f"{a!r},{c_lur!r},{c_tlur!r}")
    (out / "measures.csv").write_text("\n".join(lines) + "\n")

    result = sweep("horodecki_noise",
                   [a_axis, GridAxis("p", 0.0, 1.0, args.step_p)],
                   ["lur", "tlur"], obs_spec="schmidt_loo_pair")
    (out / "regions.csv").write_text(result.to_csv())

    print(f"wrote {out / 'measures.csv'} and {out / 'regions.csv'}")
    print(f"threshold p* per a, bisected to {BOUNDARY_TOL:g} (- = never fires on [0, 1]):")
    print("a     " + "  ".join(f"{name:<8}" for name in BOUNDARY_CRITERIA))
    for a in a_axis.values():
        print(f"{a:.2f}  " + "  ".join(threshold(a, name) for name in BOUNDARY_CRITERIA))


if __name__ == "__main__":
    main()

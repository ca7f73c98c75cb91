#!/usr/bin/env python3
"""Detection-region and measure data for the 3x3 bound entangled family.

Writes two CSV files:

* ``measures.csv``: C_LUR and C_TLUR versus the family parameter a at p = 1,
  using the conjugate-paired generator sets (the tightened estimate is the
  larger one everywhere).
* ``regions.csv``: per-(a, p) verdicts of the plain and tightened variance
  criteria with state-adapted Schmidt observables on the white-noise mixture;
  a boundary summary (lowest detected p per a) is printed.
"""

import argparse
import pathlib

from tlurkit import (
    GridAxis, entanglement_measures, horodecki33, su_pair, sweep,
)


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

    boundary = {}
    for cell in result.cells:
        a, p = cell["params"]["a"], cell["params"]["p"]
        for name in ("lur", "tlur"):
            if cell["reports"][name]["detected"]:
                key = (name, a)
                boundary[key] = min(boundary.get(key, 2.0), p)

    print(f"wrote {out / 'measures.csv'} and {out / 'regions.csv'}")
    print("lowest detected p per a (blank = criterion never fires):")
    print("a      lur     tlur")
    for a in a_axis.values():
        row = [f"{a:.2f}"]
        for name in ("lur", "tlur"):
            p = boundary.get((name, a))
            row.append("  -   " if p is None else f"{p:.2f}  ")
        print("  ".join(row))


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Writes the reference outputs that CI keeps and diffs against a change's
# base commit: the Fig. 1 region data and its p* table
# (scripts/fig1_regions.py), and the three Example 2 bisections as JSON,
# floats in full repr.  Run it from the root of a checkout, with the output
# directory relative to that root, so that the lines naming it read the same
# in every checkout:
#
#   bash scripts/reference_outputs.sh reference_outputs
set -euo pipefail
out="${1:?usage: scripts/reference_outputs.sh OUT_DIR}"
mkdir -p "$out"
PYTHONPATH=src python scripts/fig1_regions.py --out-dir "$out" > "$out/fig1_thresholds.txt"
for criterion in nonlinear_witness corollary1 ppt; do
  PYTHONPATH=src python -m tlurkit.cli --out "$out/example2-$criterion.json" \
    bisect --family noisy_singlet --param p --lo 0 --hi 1 --criterion "$criterion"
done

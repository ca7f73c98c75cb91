#!/usr/bin/env bash
# Writes the reference outputs that CI keeps and diffs against a change's
# base commit: the Fig. 1 region data and its p* table
# (scripts/fig1_regions.py), the three Example 2 bisections as JSON, floats
# in full repr, three more bisections whose walk stops at a coarse tol or
# on a subinterval (corollary1 at tol 0.3 and ppt at tol 0.7 on [0, 1],
# nonlinear_witness at tol 1e-9 on [0.03, 0.97]), four whose walk runs
# through many later stacks (on [0, 1]: corollary1 at tol 1e-300, ppt and
# nonlinear_witness at tol 1e-12, and tlur on horodecki_noise at a = 0.05
# at tol 1e-12), and single-state reports in JSON and CSV: `evaluate` of
# tlur (default Schmidt set), lur (su_pair) and ppt, and `cv-evaluate` of
# duan and corollary2 at a = 1 and a = -0.7.  It also writes, in JSON and
# CSV, a random_separable sweep whose dim_a axis spans three bipartitions,
# and, for six inputs the CLI refuses (a value out of range on an axis, a
# missing and an unknown parameter, a non-integral dim_a on an axis, a bool
# in a state spec, an out-of-range bisection end), the diagnostic and the
# exit code, each in one file.  Run it from the root of a checkout, with the
# output directory relative to that root, so that the lines naming it read
# the same in every checkout:
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
for run in "corollary1 0 1 0.3" "ppt 0 1 0.7" "nonlinear_witness 0.03 0.97 1e-9" \
    "corollary1 0 1 1e-300" "ppt 0 1 1e-12" "nonlinear_witness 0 1 1e-12"; do
  read -r criterion lo hi tol <<< "$run"
  PYTHONPATH=src python -m tlurkit.cli --out "$out/bisect-$criterion-tol$tol.json" \
    bisect --family noisy_singlet --param p --lo "$lo" --hi "$hi" --tol "$tol" \
    --criterion "$criterion"
done
PYTHONPATH=src python -m tlurkit.cli --out "$out/bisect-tlur-a0.05-tol1e-12.json" \
  bisect --family horodecki_noise --param p --lo 0 --hi 1 --tol 1e-12 --criterion tlur \
  --fix a=0.05
tlur_state='{"family": "horodecki_noise", "params": {"a": 0.5, "p": 0.999}}'
singlet_state='{"family": "noisy_singlet", "params": {"p": 0.5}}'
for format in json csv; do
  cli=(env PYTHONPATH=src python -m tlurkit.cli --format "$format")
  "${cli[@]}" --out "$out/evaluate-tlur.$format" \
    evaluate --criterion tlur --state "$tlur_state"
  "${cli[@]}" --out "$out/evaluate-lur-su_pair.$format" \
    evaluate --criterion lur --state "$singlet_state" --obs su_pair
  "${cli[@]}" --out "$out/evaluate-ppt.$format" \
    evaluate --criterion ppt --state "$singlet_state"
  "${cli[@]}" --out "$out/sweep-random_separable-dim_a.$format" \
    sweep --family random_separable --axis dim_a:2:4:1 --fix dim_b=3 --fix seed=4 \
    --criteria ppt,ccnr,lur --obs schmidt_loo_pair
  for criterion in duan corollary2; do
    for a in 1 -0.7; do
      "${cli[@]}" --out "$out/cv-evaluate-$criterion-a$a.$format" \
        cv-evaluate --criterion "$criterion" --a="$a" --state '{"tmsv": 0.5}'
    done
  done
done

# refused inputs: their output (the one diagnostic line) and exit code; an
# exit that is not 0 is recorded, not taken as the script's failure
refused() {
  local name=$1 code=0
  shift
  PYTHONPATH=src python -m tlurkit.cli "$@" > "$out/refused-$name.txt" 2>&1 || code=$?
  echo "exit $code" >> "$out/refused-$name.txt"
}
refused p-out-of-range sweep --family horodecki_noise --axis p:0:2:0.5 --fix a=0.5 \
  --criteria ppt
refused a-missing sweep --family horodecki_noise --axis p:0:1:0.5 --criteria ppt
refused q-unknown sweep --family horodecki_noise --axis p:0:1:0.5 --fix a=0.5 --fix q=1 \
  --criteria ppt
refused dim_a-not-integral sweep --family random_separable --axis dim_a:2:3:0.5 \
  --fix dim_b=2 --criteria ppt
refused p-bool evaluate --criterion ppt \
  --state '{"family":"horodecki_noise","params":{"a":0.5,"p":true}}'
refused bisect-hi-out-of-range bisect --family horodecki_noise --param p --lo 0 --hi 2 \
  --fix a=0.5 --criterion ppt

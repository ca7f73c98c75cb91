#!/usr/bin/env bash
# Writes the reference outputs that CI keeps and diffs against a change's
# base commit: the Fig. 1 region data and its p* table
# (scripts/fig1_regions.py), the three Example 2 bisections in JSON and
# CSV, floats in full repr, three more bisections whose walk stops at a coarse tol or
# on a subinterval (corollary1 at tol 0.3 and ppt at tol 0.7 on [0, 1],
# nonlinear_witness at tol 1e-9 on [0.03, 0.97]), four whose walk runs
# through many later stacks (on [0, 1]: corollary1 at tol 1e-300, ppt and
# nonlinear_witness at tol 1e-12, and tlur on horodecki_noise at a = 0.05
# at tol 1e-12), and single-state reports in JSON and CSV: `evaluate` of
# tlur (default Schmidt set), lur (su_pair) and ppt; of lur, tlur, tlur_dual,
# c_lur, c_tlur and lemma1 on noisy_singlet at p = 0.9 with the declared Pauli
# set (sigma_x, sigma_y, sigma_z on both sides, bounds 2 and 2); of tlur_dual
# with su_pair on the product state |00> given as a {"dims", "matrix"} spec,
# where its margin is exactly 0.0 (not -0.0); of nonlinear_witness and
# corollary1 with loo_pair on horodecki_noise at a = 0.5, p = 0.999; and
# `cv-evaluate` of duan and corollary2 at a = 1 and a = -0.7.  The set
# criteria among these read the one bound guard of their set's record
# (Frame.moments), and the tightened ones its one signed form
# (criteria._parts).  Specs that carry every optional key of their kind, which
# the one kind rule (states.spec_kind) accepts, are pinned too: `evaluate`
# of ppt on a {"dims", "matrix"} state, of lur with an su_pair builder of
# params {"dim_a": 3, "pairing": "direct"} on horodecki_noise at a = 0.5,
# p = 0.999, and `cv-evaluate` of duan on a vacuum with a "mean", a thermal
# pair and a "cov" with a "mean".  It also writes, in JSON and CSV, a random_separable
# sweep whose dim_a axis spans three bipartitions, the `scan` of corollary1
# and ppt on noisy_singlet over p = 0:1:0.05 (the margins of 21 states of
# one 2x2 family stack, read through the family's real states, its
# validation and the Pauli LOO pair's record), and, for six inputs the
# CLI refuses (a value out of range on an axis, a missing and an unknown
# parameter, a non-integral dim_a on an axis, a bool in a state spec, an
# out-of-range bisection end), the diagnostic and the exit code, each in
# one file.  Run it from the root of a checkout, with the
# output directory relative to that root, so that the lines naming it read
# the same in every checkout:
#
#   bash scripts/reference_outputs.sh reference_outputs
set -euo pipefail
out="${1:?usage: scripts/reference_outputs.sh OUT_DIR}"
mkdir -p "$out"
PYTHONPATH=src python scripts/fig1_regions.py --out-dir "$out" > "$out/fig1_thresholds.txt"
for criterion in nonlinear_witness corollary1 ppt; do
  for format in json csv; do
    PYTHONPATH=src python -m tlurkit.cli --format "$format" \
      --out "$out/example2-$criterion.$format" \
      bisect --family noisy_singlet --param p --lo 0 --hi 1 --criterion "$criterion"
  done
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
singlet09_state='{"family": "noisy_singlet", "params": {"p": 0.9}}'
paulis='[[[0,1],[1,0]], [[0,[0,-1]],[[0,1],0]], [[1,0],[0,-1]]]'
pauli_obs="{\"opsA\": $paulis, \"opsB\": $paulis, \"boundA\": 2, \"boundB\": 2}"
rho='[[0, 0, 0, 0], [0, 0.5, [0, -0.5], 0], [0, [0, 0.5], 0.5, 0], [0, 0, 0, 0]]'
matrix_state="{\"dims\": [2, 2], \"matrix\": $rho}"
product_state='{"dims": [2, 2], "matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}'
su_direct_obs='{"builder": "su_pair", "params": {"dim_a": 3, "pairing": "direct"}}'
cov='[[1, 0.2, 0, 0], [0.2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]'
cv_specs=('vacuum-mean {"vacuum": {}, "mean": [1, 2, 3, 4]}' 'thermal {"thermal": [0.5, 1.0]}'
  "cov-mean {\"cov\": $cov, \"mean\": [0.5, 0, 0, -0.5]}")
for format in json csv; do
  cli=(env PYTHONPATH=src python -m tlurkit.cli --format "$format")
  "${cli[@]}" --out "$out/evaluate-tlur.$format" \
    evaluate --criterion tlur --state "$tlur_state"
  "${cli[@]}" --out "$out/evaluate-lur-su_pair.$format" \
    evaluate --criterion lur --state "$singlet_state" --obs su_pair
  "${cli[@]}" --out "$out/evaluate-ppt.$format" \
    evaluate --criterion ppt --state "$singlet_state"
  for criterion in lur tlur tlur_dual c_lur c_tlur lemma1; do
    "${cli[@]}" --out "$out/evaluate-$criterion-paulis.$format" \
      evaluate --criterion "$criterion" --state "$singlet09_state" --obs "$pauli_obs"
  done
  "${cli[@]}" --out "$out/evaluate-tlur_dual-su_pair-product.$format" \
    evaluate --criterion tlur_dual --state "$product_state" --obs su_pair
  for criterion in nonlinear_witness corollary1; do
    "${cli[@]}" --out "$out/evaluate-$criterion-loo_pair.$format" \
      evaluate --criterion "$criterion" --state "$tlur_state" --obs loo_pair
  done
  "${cli[@]}" --out "$out/evaluate-ppt-matrix.$format" \
    evaluate --criterion ppt --state "$matrix_state"
  "${cli[@]}" --out "$out/evaluate-lur-su_pair-direct.$format" \
    evaluate --criterion lur --state "$tlur_state" --obs "$su_direct_obs"
  for run in "${cv_specs[@]}"; do
    read -r name spec <<< "$run"
    "${cli[@]}" --out "$out/cv-evaluate-duan-$name.$format" \
      cv-evaluate --criterion duan --state "$spec"
  done
  "${cli[@]}" --out "$out/scan-noisy_singlet-corollary1-ppt.$format" \
    scan --family noisy_singlet --param p --min 0 --max 1 --step 0.05 \
    --criteria corollary1,ppt
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

"""Entanglement detection via variance-based local uncertainty criteria.

Core objects: ``DensityMatrix`` / ``HermitianOperator`` (validated matrix
wrappers), ``LocalObservableSet`` (paired local observables with certified
sum-uncertainty bounds), ``CriterionReport`` (uniform verdict record),
``GaussianState`` (two-mode covariance data), plus grid sweeps, threshold
bisection and a CLI.
"""

from .cvgauss import (
    GaussianState,
    combo_variance,
    eval_corollary2,
    eval_duan,
    gaussian_from_spec,
    random_separable_gaussian,
    thermal,
    tmsv,
    vacuum,
)
from .criteria import (
    entanglement_measures,
    eval_ccnr,
    eval_corollary1,
    eval_lemma1,
    eval_lur,
    eval_nonlinear_witness,
    eval_ppt,
    eval_tlur,
    eval_tlur_dual,
    joint_variance_sum,
)
from .linops import (
    DensityMatrix,
    HermitianOperator,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    purity,
    realign,
    trace_norm,
    variance,
)
from .observables import (
    BoundProvenance,
    LocalObservableSet,
    loo_basis,
    loo_pair,
    observables_from_spec,
    operator_schmidt,
    pauli_loo_pair,
    schmidt_loo_pair,
    su_generators,
    su_pair,
    uncertainty_bound,
)
from .report import DETECTION_TOL, CriterionReport
from .scan import GridAxis, ScanResult, bisect_threshold, evaluate_criterion, sweep
from .states import (
    FAMILIES,
    horodecki33,
    horodecki_noise,
    noisy_singlet,
    random_separable,
    singlet,
    state_from_spec,
    white_noise_mix,
)

__version__ = "0.1.0"

"""Learned reconstruction for linear inverse problems, with an empirical
sample-error laboratory: reconstruction families, ERM, concentration
diagnostics, covering/chaining bound curves, and rate-fit experiments."""

from .operators import AffineEstimator, ForwardOperator, GaussianSpec, mmse_affine
from .stochastics import (BoundedSpec, ProblemDistribution, TrainingSet,
                          draw_training_set, empirical_average_contraction,
                          orlicz_norm, substream, tail_check)
from .hypotheses import (ElasticNetFamily, ElasticNetParams, FixedPointFamily,
                         FixedPointParams, ParamClass, StabilityCertificate,
                         TikhonovFamily, TikhonovParams, certify_stability,
                         check_g_hypotheses, reconstruct_elastic_net,
                         reconstruct_fixed_point, reconstruct_tikhonov)
from .risk import (ErmOptions, ErmResult, empirical_risk, erm_solve,
                   expected_loss_mc, optimal_target_proxy)
from .bounds import (BoundInputs, CoveringModel, RatePrediction, chaining_bound,
                     covering_ball, covering_bound, greedy_cover,
                     predicted_exponent)
from .experiment import (ExperimentConfig, RateFit, bound_domination_check,
                         run_rate_experiment, run_verification_suite)

__version__ = "0.1.0"

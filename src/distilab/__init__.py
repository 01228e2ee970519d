"""Desk-scale ensemble distillation laboratory.

Weight-averaged factored students, diversity-gap input perturbations, the
usual distillation baselines, and a calibration / diversity / loss-landscape
analysis suite, all on synthetic classification tasks small enough that every
mechanism-level claim is directly testable.
"""

from .data import Dataset, corrupt, load_csv, make_mixture, make_ood
from .distill import (DistillConfig, aekd_weights, kd_loss, proxy_dirichlet_target,
                      proxy_end2_loss, train_student)
from .metrics import (MetricsReport, accuracy, calibrated_metrics, diversity,
                      ece, entropy_histogram, evaluate_model, fit_temperature,
                      nll)
from .nets import (MLP, ModelSpec, average_rank_one, build_be, build_plain,
                   checkpoint_load, checkpoint_save, join)
from .optim import OptimConfig, lr_at, train_teachers
from .perturb import Perturbation, build_perturbation
from .subspace import LineScan, interpolate, line_scan

__version__ = "0.1.0"

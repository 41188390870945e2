"""Freeness certificates and genericity experiments for SL_n(Z) pairs."""

# defined before the submodule imports: harness reads it at import time
__version__ = "0.1.0"

from .matrices import IntMatrix, det, evaluate_word, free_reduce, inverse, invert_word
from .spectral import DELTA_NUM, SvdTriple, singular_gap, spectral_norm, svd
from .wedge import attractor_repeller, point_hyperplane_distance, proj_distance, wedge_matrix
from .sampler import BallEnumeration, BallSpec, enumerate_ball, sample_pairs
from .certify import (
    ContractionWitness,
    PingPongCertificate,
    SchottkyCertificate,
    Verdict,
    choose_k,
    epsilon_contracting,
    hausdorff_upper_bound,
    ping_pong_pair,
    schottky_sl2,
    sl2_fixed_points,
    very_proximal,
)
from .dynamics import (
    LyapunovEstimate,
    check_twoops,
    estimate_lyapunov,
    falsify_freeness,
    reduced_length_stats,
)
from .haar import CartanRegion, gap_fraction, haar_density, integrate_region
from .harness import ExperimentConfig, ExperimentReport, emit_report, run_experiment

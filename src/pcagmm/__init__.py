"""Mixture models with per-component dimensionality reduction and their
application to patch-based superresolution of images and volumes."""

from .degrade import degrade, dft_downsample, gauss_blur
from .errors import (
    CorruptHeader,
    DataError,
    DegenerateDensity,
    EmptyComponent,
    InvalidParameter,
    InvalidShape,
    LineSearchFailed,
    NotPositiveDefinite,
    NumericalFailure,
    PcagmmError,
    RankDeficient,
    UncoveredPixel,
    UnsupportedFormat,
    VersionMismatch,
)
from .formats import load_model, read_image, save_model, write_image
from .gmm import (
    EmConfig,
    EmTrace,
    GmmParams,
    fit_gmm,
    gauss_logpdf,
    gmm_estep,
    gmm_mstep,
    gmm_nll,
)
from .linalg import (
    cholesky_spd,
    logdet_spd,
    project_stiefel,
    random_stiefel,
)
from .metrics import bicubic_upsample, nearest_upsample, psnr
from .palm import (
    MStepProblem,
    SolverConfig,
    eval_G,
    grad_G_U,
    grad_G_b,
    ipalm_minimize,
    palm_minimize,
)
from .patches import PatchGeometry, PatchSet, aggregate, extract_low, extract_pairs
from .pca_gmm import (
    LiftedGaussian,
    PcaGmmModel,
    fit_pcagmm,
    lift_component,
    pcagmm_estep,
    pcagmm_objective,
    recover_component,
)
from .stats import SufficientStats, accumulate_stats
from .superres import (
    ConditionalBlocks,
    mmse_patch,
    precompute_conditionals,
    reconstruct,
    select_component,
)

__version__ = "0.1.0"

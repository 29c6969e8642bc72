"""Positive definite kernels against finite boundary measure spaces.

Factorize kernels through atomic measures (the spectral Parseval frame is
the factorization through a counting measure), drive the isometry/
co-isometry transform pair, realize Gaussian boundary processes, and run
the Clark-measure analytic machinery on the disk.
"""

from .errors import (
    BAtOne,
    BaseMismatch,
    CauchyZero,
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    IndexOutOfRange,
    InvalidMeasure,
    KernelBoundaryError,
    LabelMismatch,
    NotAFactorization,
    NotHermitian,
    NotPsd,
    ShapeMismatch,
    SingularCovariance,
    UnknownLabel,
    WorkerDied,
    ZeroExpectation,
)
from .measures import CircleMeasure, DiscreteMeasure
from .kernels import (
    FiniteKernel,
    KernelSpec,
    PointSet,
    PsdReport,
    assemble_gram,
    check_positive_definite,
    polydisk_szego_eval,
)
from .rkhs import (
    RkhsElement,
    evaluate,
    norm_squared,
    parseval_factorize,
    rkhs_inner,
    tightness_test,
    verify_parseval,
)
from .factorization import (
    BoundaryFactorization,
    MeasureMorphism,
    apply_V,
    apply_W,
    check_isometry,
    check_morphism,
    l2_norm_squared,
    minimality_test,
    projection_spectrum,
    pullback,
    pullback_isometry_residual,
    range_projection,
    schwarz_bound_check,
    verify_factorization,
)
from .gaussian import (
    SampleBatch,
    consistency_check,
    empirical_covariance,
    log_density,
    moments,
    realize,
    sample,
)
from .clark import (
    RenormContext,
    b_eval,
    build_kb_factorization,
    build_szego_factorization,
    cauchy_transform,
    expectation_vector,
    herglotz_poisson_check,
    inner_modulus_check,
    kb_eval,
    kb_feature,
    polydisk_density_test,
    renormalize,
)

__version__ = "0.1.0"

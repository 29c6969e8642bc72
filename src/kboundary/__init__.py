"""Positive definite kernels against finite boundary measure spaces.

Factorize kernels through atomic measures (the spectral Parseval frame is
the factorization through a counting measure), drive the isometry/
co-isometry transform pair, realize Gaussian boundary processes, and run
the Clark-measure analytic machinery on the disk.

Each public name is read from its module on first access (PEP 562), so
that importing the package, or ``kboundary.cli`` for one command, loads
only the modules in use.  The object is looked up on every access and not
kept here: a name always reads what its module holds now.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names the package reads from it
_EXPORTS = {
    "errors": (
        "BAtOne", "BaseMismatch", "CauchyZero", "ConfigError", "DimensionMismatch",
        "DomainViolation", "IndexOutOfRange", "InvalidMeasure", "KernelBoundaryError",
        "LabelMismatch", "NotAFactorization", "NotHermitian", "NotPsd", "ShapeMismatch",
        "ZeroExpectation",
    ),
    "measures": ("CircleMeasure", "DiscreteMeasure"),
    "kernels": (
        "FiniteKernel", "KernelSpec", "PointSet", "PsdReport", "assemble_gram",
        "check_positive_definite", "polydisk_szego_eval",
    ),
    "rkhs": (
        "RkhsElement", "norm_squared", "parseval_factorize", "rkhs_inner", "tightness_test",
        "verify_parseval",
    ),
    "factorization": (
        "BoundaryFactorization", "MeasureMorphism", "apply_V", "apply_W", "check_isometry",
        "check_morphism", "l2_norm_squared", "minimality_test", "projection_spectrum",
        "pullback", "pullback_isometry_residual", "range_projection", "schwarz_bound_check",
        "verify_factorization",
    ),
    "gaussian": (
        "SampleBatch", "consistency_check", "empirical_covariance", "moments", "realize",
        "sample",
    ),
    "clark": (
        "RenormContext", "b_eval", "build_kb_factorization", "build_szego_factorization",
        "cauchy_transform", "expectation_vector", "herglotz_poisson_check",
        "inner_modulus_check", "kb_eval", "kb_feature", "polydisk_density_test", "renormalize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})

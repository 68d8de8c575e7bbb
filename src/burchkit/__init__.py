"""Exact ideal classification toolkit.

Two combinatorial backends (monomial quotients of polynomial rings and
numerical semigroup rings) feed a shared classification layer for Burch
and weakly m-full ideals, a degreewise-exact homological engine over
GF(p), a torsion predicate for ideals tensored with their duals, and a
seeded property-testing harness.
"""

from .classify import (
    classification_report,
    cor214_classify,
    is_burch,
    is_weakly_mfull,
    is_weakly_mfull_wrt,
    l2_identities,
    l3_equivalence,
    loewy_length,
)
from .fuzz import FuzzConfig, SuiteReport, replay_instance, run_suite, suite_names
from .homalg import (
    GradedAlgebra,
    GradedPresentation,
    Resolution,
    TorResult,
    annihilates,
    audit_resolution,
    cyclic_presentation,
    free_presentation,
    is_free,
    module_from_ideal,
    resolve,
    syzygy,
    tor_dim,
    tor_dims,
)
from .hw import (
    HwReport,
    TorsionVerdict,
    dual_ideal,
    hw_has_torsion,
    hw_report,
)
from .monomial import MonomialIdeal, integral_closure
from .problemfile import ParsedProblem, ProblemFileError, load_problem, parse_problem
from .rings import QuotientRing, SemigroupRing
from .semigroup import NumericalSemigroup, RelativeIdealSet, mpow_set, relset_colon

__version__ = "0.1.0"

__all__ = [
    "FuzzConfig",
    "GradedAlgebra",
    "GradedPresentation",
    "HwReport",
    "MonomialIdeal",
    "NumericalSemigroup",
    "ParsedProblem",
    "ProblemFileError",
    "QuotientRing",
    "RelativeIdealSet",
    "Resolution",
    "SemigroupRing",
    "SuiteReport",
    "TorResult",
    "TorsionVerdict",
    "annihilates",
    "audit_resolution",
    "classification_report",
    "cor214_classify",
    "cyclic_presentation",
    "dual_ideal",
    "free_presentation",
    "hw_has_torsion",
    "hw_report",
    "integral_closure",
    "is_burch",
    "is_free",
    "is_weakly_mfull",
    "is_weakly_mfull_wrt",
    "l2_identities",
    "l3_equivalence",
    "load_problem",
    "loewy_length",
    "module_from_ideal",
    "mpow_set",
    "parse_problem",
    "relset_colon",
    "replay_instance",
    "resolve",
    "run_suite",
    "suite_names",
    "syzygy",
    "tor_dim",
    "tor_dims",
    "__version__",
]

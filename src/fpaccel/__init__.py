"""fpaccel: turn crawling fixed point iterations into superlinear ones.

The package is organised around second-order jets (:mod:`fpaccel.jets`),
named iteration maps and the problem corpus (:mod:`fpaccel.maps`), the
accelerated step functions (:mod:`fpaccel.accelerators`), whole-sequence
transforms that truncate rather than raise (:mod:`fpaccel.transforms`), an
iteration driver (:mod:`fpaccel.engine`), detection of exactly-collapsing
map families (:mod:`fpaccel.kernel`) and a CLI (:mod:`fpaccel.cli`).
"""

from .accelerators import (
    DEFAULT_TOL,
    QuadratureError,
    Status,
    StepOutcome,
    adaptive_gauss_kronrod,
    adaptive_simpson,
    compose_step,
    first_newton_step,
    integral_step,
    phi_step,
    plain_step,
    standard_step,
    steffensen_step,
)
from .engine import (
    IterationTrace,
    OrderReport,
    empirical_order,
    iterate,
)
from .jets import (
    Jet2,
    JetDomainError,
    Scalar,
    is_finite,
    lift,
)
from .kernel import (
    FitInconclusiveError,
    KernelVerdict,
    affinity_test,
    kernel_family_fit,
)
from .maps import (
    CorpusError,
    IterationMap,
    ProblemSpec,
    corpus_lookup,
    corpus_names,
    kernel_family_map,
)
from .transforms import (
    aitken_delta2,
    iterated_aitken,
    theta2,
    w_transform,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "CorpusError",
    "FitInconclusiveError",
    "IterationMap",
    "IterationTrace",
    "Jet2",
    "JetDomainError",
    "KernelVerdict",
    "OrderReport",
    "ProblemSpec",
    "QuadratureError",
    "Scalar",
    "Status",
    "StepOutcome",
    "adaptive_gauss_kronrod",
    "adaptive_simpson",
    "affinity_test",
    "aitken_delta2",
    "compose_step",
    "corpus_lookup",
    "corpus_names",
    "empirical_order",
    "first_newton_step",
    "integral_step",
    "is_finite",
    "iterate",
    "iterated_aitken",
    "kernel_family_fit",
    "kernel_family_map",
    "lift",
    "phi_step",
    "plain_step",
    "standard_step",
    "steffensen_step",
    "theta2",
    "w_transform",
]

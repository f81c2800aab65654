"""Truncated Hausdorff matrix moment problem toolkit.

Given Hermitian q x q moments s_0..s_m on [a, b], the package classifies
Hausdorff positive definiteness of the block Hankel families, builds the
orthogonal matrix polynomial families with their second-kind companions,
computes both Dyukarev-Stieltjes parameter chains by independent routes,
factorizes the resolvent matrix multiplicatively, and evaluates the
Krein and Friedrichs extremal solutions both as polynomial quotients and
as finite matrix continued fractions.  Every central quantity has at
least two computation routes, and the routes are cross-checked.
"""

from .errors import (
    EmptyMeasure,
    IllConditioned,
    InconsistentLengths,
    InsufficientMoments,
    InvalidMomentSequence,
    NonPositiveParameter,
    OrderUnavailable,
    PointOnInterval,
    PointOutsideInterval,
    PoleAtZ,
    RouteMismatch,
    SingularDenominator,
    SingularLevel,
    SingularNormalization,
    SingularPivot,
    ThmmError,
    WrongChainKind,
    WrongMatrixSize,
)
from .moments import (
    Classification,
    DiscreteMeasure,
    HankelSet,
    MomentSequence,
    Witness,
    build_hankels,
    classify,
)
from .polynomials import (
    MatrixPoly,
    PolynomialFamily,
    adjoint_eval,
    build_family,
    ensure_family,
    eval_poly,
    verify_family_identities,
)
from .dsm import (
    DsmFirst,
    DsmSecond,
    compute_first,
    compute_second,
    product_identities,
    recover_moments,
    scalar_determinant_params,
)
from .resolvent import (
    resolvent_direct_many,
    resolvent_factorized_many,
    resolvent_factors,
)
from .extremal import (
    ContinuedFractionChain,
    ExtremalSet,
    extremal_cf_many,
    extremal_quotient_many,
)
from .reporting import IdentityCheck, IdentityReport

__version__ = "0.1.0"

"""Four-dimensional Bloch-sphere toolkit for qutrits.

A qutrit state is written over the nine displacement (shift-and-boost)
unitaries; conjugate pairing leaves four signed weights n1..n4 - a point
in a 4D unit ball - and four angles theta1..theta4.  The package covers
the chart itself, physicality and rank classification, coordinate
sections of the state body, mutually unbiased bases, diagonal unital
channels with their Choi test and polytope, random-state ensembles with
closed-form Hilbert-Schmidt/Bures densities, and the Gell-Mann chart.
"""

from .bloch import (
    BlochParams,
    PolarParams,
    bloch_coefficients,
    canonical_pair,
    from_density,
    from_polar,
    to_density,
    to_polar,
    purity,
)
from .errors import QutritBlochError, Uncertified
from .positivity import (
    CharCoeffs,
    RankReport,
    a3_closed_form,
    a3_polar,
    char_coeffs,
    is_physical,
    is_point_physical,
    max_a3_over_theta,
    rank_classify,
)
from .weyl import commuting_classes, weyl_op, weyl_table

__version__ = "0.1.0"

__all__ = [
    "BlochParams",
    "PolarParams",
    "CharCoeffs",
    "RankReport",
    "QutritBlochError",
    "Uncertified",
    "bloch_coefficients",
    "canonical_pair",
    "from_density",
    "from_polar",
    "to_density",
    "to_polar",
    "purity",
    "a3_closed_form",
    "a3_polar",
    "char_coeffs",
    "is_physical",
    "is_point_physical",
    "max_a3_over_theta",
    "rank_classify",
    "commuting_classes",
    "weyl_op",
    "weyl_table",
    "__version__",
]

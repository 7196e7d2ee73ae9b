"""meanineq: hardened special means and a slack-valued inequality verifier.

The package evaluates the classical two-argument means (A, G, H, L, I, Lp),
the power-difference ratio r(x) = (a^x - b^x)/(c^x - d^x) and ln r, a catalog
of mean inequalities reported link-by-link as signed slacks, the Ky Fan
statistics with their refinements, and a deterministic sampling harness with
an arbitrary-precision oracle.  See the README for the CLI and JSON schema.
"""

from .means import (
    arithmetic_mean, geometric_mean, harmonic_mean,
    logarithmic_mean, identric_mean, p_logarithmic_mean,
    ln_identric, mean_chain_slacks, evaluate_mean,
)
from .ratio import (
    ConvexityClass, DiscClass, OrderedQuad,
    ratio_value, log_ratio_value, ratio_derivative, log_ratio_derivative,
    convexity_class, secant_slope, midpoint_convexity_slack,
)
from .report import SlackReport, HypothesisViolation, TOL_V

__version__ = "0.1.0"

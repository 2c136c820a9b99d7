"""Exception hierarchy shared by all finslab modules."""


class FinslabError(Exception):
    """Base class for all errors raised by finslab."""


class NumericalError(FinslabError):
    """A valid experiment met a numerical failure; ``cli.run`` turns it
    into a failed report."""


class ZeroBaseVector(FinslabError):
    """A Minkowski-norm operation was asked to evaluate at y = 0."""


class NotPositiveDefinite(FinslabError):
    """A matrix expected to be positive definite failed the check."""


class WindTooStrong(FinslabError):
    """Navigation wind with F(W) >= 1; the shifted indicatrix no longer encloses 0."""


class NotSkew(FinslabError):
    """Matrix expected to be skew-symmetric is not."""


class DimensionMismatch(FinslabError):
    """Block sizes or vector dimensions do not add up."""


class LambdaOutOfRange(FinslabError):
    """Rotation speeds must be strictly increasing and lie in (0, 1)."""


class ChartBoundary(FinslabError):
    """Chart coordinates requested outside the chart domain."""


class DifferentiationFailure(FinslabError):
    """A finite-difference stencil would leave the chart domain."""


class DegenerateFlag(FinslabError):
    """Flagpole and transverse vector are (numerically) linearly dependent."""


class CriticalPoint(NumericalError):
    """df = 0 at the requested point; the nonlinear gradient is undefined there."""


class StencilEscape(NumericalError):
    """A Laplacian stencil point fell on the critical set of the function."""


class EmptyLevel(NumericalError):
    """No sample of the requested level set could be produced."""


class ClusterAmbiguity(NumericalError):
    """Eigenvalue clustering is not stable under the gap threshold."""


class UnsupportedSplit(FinslabError):
    """(k1, k2) multiplicities are only meaningful when m is a multiple of 4."""


class NotClifford(FinslabError):
    """Matrices are not symmetric, or do not anticommute, to roundoff."""


class NotOnFocalSet(FinslabError):
    """Point does not lie on the focal manifold f = -1."""


class RankDeficiency(NumericalError):
    """Numerical null-space rank is ambiguous at the configured threshold."""


class UnknownCheck(FinslabError):
    """Verification check name not recognized by the dispatcher."""


class ConfigError(FinslabError):
    """Experiment configuration is invalid; the message names the field."""


class ParseError(FinslabError):
    """A JSON input file failed to parse; the message carries the line."""

"""Exception hierarchy shared by all modules.

Every failure mode named in an operation contract maps to one class here so
callers (and the pipeline runner) can record failures without string matching.
"""


class LqBundleError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(LqBundleError):
    """Base class for input-validation failures."""


# spectral model
class NonPositiveEigenvalue(ValidationError):
    pass


class NotSorted(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


# symplectic geometry
class OddLength(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


# dichotomies / Lyapunov-Perron
class SpectrumOnAxis(LqBundleError):
    pass


class HorizonTooShort(ValidationError):
    pass


# frequency domain
class SingularShift(LqBundleError):
    """Resolvent requested at (numerically) spectral point."""


class ConditionFailed(LqBundleError):
    """A prerequisite certificate (frequency condition) does not hold."""


# stationary Hamiltonian
class SingularF3(ValidationError):
    pass


class NotLagrange(LqBundleError):
    """Constructed subspace fails the Lagrange test (violated hypotheses)."""


class LPBudgetExceeded(LqBundleError):
    """The Lyapunov-Perron collocation's row table would hold too many entries."""


class FrequencyConditionFailed(LqBundleError):
    pass


class Oscillating(LqBundleError):
    """Stable subspace meets the vertical subspace nontrivially."""


class SampleNotInM0(ValidationError):
    pass


class EpsilonTooLarge(LqBundleError):
    pass


# spatial averaging
class NoCandidate(LqBundleError):
    pass


class AValueOutOfRange(ValidationError):
    pass


class AmplitudeTooLarge(ValidationError):
    pass


class NotAContraction(LqBundleError):
    pass


class ContractionFailed(LqBundleError):
    pass


class NotPositive(LqBundleError):
    """V-form certificate cannot find a positive coercivity constant."""


# scenario / reporting
class ParseError(ValidationError):
    pass


class MissingField(ValidationError):
    pass

"""Exception taxonomy.

Errors fall in two buckets: bad user input (instances, parameters,
schedules) and violated internal invariants.  The CLI maps the first
bucket to exit code 1 and the second to exit code 2.
"""


class SparsepackError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SparsepackError):
    """An instance or argument failed validation."""


class ParamError(ValidationError):
    """A parameter is outside its documented domain."""


class DomainError(ValidationError):
    """A numeric argument is outside the domain of a function."""


class SizeError(ValidationError):
    """An exact or exhaustive routine was asked to run beyond its size cap."""


class DegreeError(ValidationError):
    """A digraph exceeds the out-degree bound required by a coloring routine."""


class AttenuationError(SparsepackError):
    """An estimated acceptance probability fell below its attenuation target.

    Signals a chance schedule that is infeasible for the instance at hand
    (or a simulation budget far too small to certify it).
    """


class EstimateError(SparsepackError):
    """A simulation-based estimate of a reachable event came out zero."""


class InternalInvariantError(SparsepackError):
    """A postcondition that should hold by construction was violated."""


class UnboundedError(SparsepackError):
    """The LP is unbounded (cannot happen with box constraints)."""

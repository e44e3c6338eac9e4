"""Exception types shared across the package."""

from __future__ import annotations


class RmtdecError(Exception):
    """Base class for all package-specific errors."""


class InvalidInterval(RmtdecError):
    """Integration interval has lo >= hi or is otherwise malformed."""


class NonConvergence(RmtdecError):
    """An adaptive numerical procedure failed to meet its tolerance."""


class NotSymmetric(RmtdecError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class OutOfSupport(RmtdecError):
    """A point lies outside the open support of a weight."""


class OrderExceeded(RmtdecError):
    """Requested recurrence order exceeds the weight's admissible order."""


class BadParameter(RmtdecError):
    """Weight parameter outside its legal range."""


class NoExactEngine(BadParameter):
    """No exact gap engine covers this law and interval."""


class MomentDivergence(RmtdecError):
    """A moment integral required for orthogonalization does not converge."""


class InterlacingViolated(RmtdecError):
    """Singular-value coordinates do not satisfy the required ordering."""


class StuckChain(RmtdecError):
    """MCMC acceptance rate collapsed below 1% after adaptation."""


class EmptySample(RmtdecError):
    """A statistical test received an empty sample."""


class PoleAtPi(RmtdecError):
    """Inverse stereographic map evaluated at or beyond the angle pi."""

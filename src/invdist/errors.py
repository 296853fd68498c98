"""Exception types shared across the package."""


class InvdistError(Exception):
    """Base class for all library errors."""


class DomainViolation(InvdistError, ValueError):
    """A point lies outside the domain an operation requires it in."""


class DegenerateInput(InvdistError, ValueError):
    """Geometric input outside the valid parameter range (zero radius, c < 1, ...)."""


class UnsupportedDomain(InvdistError, TypeError):
    """The requested operation has no implementation for this domain variant."""


class NonConvergence(InvdistError, RuntimeError):
    """An iterative scheme exhausted its refinement budget before certifying."""


class BranchViolation(InvdistError, ValueError):
    """Input lies on the branch cut of a principal-branch map."""


class InvalidDomain(InvdistError, ValueError):
    """Domain construction data is inconsistent (self-intersecting boundary, ...)."""


class NoFiniteConstant(InvdistError, RuntimeError):
    """A fitted constant is not finite: some sample admits no finite one."""


class InsufficientSamples(InvdistError, ValueError):
    """Too few samples: a regression or fit given too few, or a domain too
    small for a sampler to find points at the required boundary depth."""


class SchemaError(InvdistError, ValueError):
    """A JSON document does not match the domain / report schema."""

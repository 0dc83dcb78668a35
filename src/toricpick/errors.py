"""Exception types shared across the package."""


class ToricError(Exception):
    """Base class for every error raised by this package."""


class BudgetError(ToricError):
    """The estimated work of a computation exceeds its fixed limit."""


class DimensionError(ToricError):
    """Operand dimensions do not fit the requested operation."""


class ShapeError(ToricError):
    """Structural mismatch: variable counts, truncations, or facet layout."""


class InputError(ToricError):
    """Invalid polytope input: malformed, degenerate, redundant, or empty."""


class UnboundedError(ToricError):
    """The inequality system does not bound a polytope."""


class NotSimpleError(ToricError):
    """A vertex lies on more than dim facets, or a face has wrong dimension."""

    def __init__(self, vertex, facets, message=None):
        if message is None:
            message = "vertex %s lies on facets %s; polytope is not simple" % (
                tuple(vertex), tuple(facets))
        super().__init__(message)
        self.vertex = tuple(vertex)
        self.facets = tuple(facets)


class GenericityError(ToricError):
    """The chosen vector pairs to zero with some fixed point weight."""


class RouteDisagreementError(ToricError):
    """Two independent evaluation routes returned different values."""

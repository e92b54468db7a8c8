"""Exception types shared across the package."""


class PointOutOfDomain(ValueError):
    """A non-periodic coordinate lies outside the grid's box."""


class GridMismatch(ValueError):
    """A grid does not tile its box, or two grids disagree where they must match."""


class UniverseMismatch(ValueError):
    """Sets/tables built over different universes (state or input counts differ)."""


class AbstractionMismatch(ValueError):
    """A serialized bank is keyed to a different abstraction."""


class DomainViolation(RuntimeError):
    """The current cell is outside the shield's domain; safety is no longer guaranteed."""


class EmptyActiveSet(ValueError):
    """Shield composition, and a bank, require at least one atomic specification."""


class GenerationFailed(RuntimeError):
    """Random world generation exhausted its rejection-sampling budget."""

"""Exception hierarchy shared by all chen3 modules.

Exit-code mapping used by the CLI: DomainError/ConfigError -> 2,
ResourceBudgetError -> 3, PaperAssertionError -> 1, InvariantError -> 4.
"""


class Chen3Error(Exception):
    """Base class for all library errors."""


class DomainError(Chen3Error):
    """An argument is outside the documented domain of an operation."""


class ConfigError(Chen3Error):
    """A configuration / parameter-selection problem (e.g. no prime in the
    required interval)."""


class ResourceBudgetError(Chen3Error):
    """A request exceeds a configured memory or enumeration budget."""


class InvariantError(Chen3Error):
    """An internal identity that must hold exactly failed; indicates a bug."""


class PaperAssertionError(Chen3Error):
    """An inequality asserted under the paper profile failed numerically."""

"""Exception hierarchy shared by all simulation modules.  A bad geometry,
an ``Apparatus`` or a field layout alike, is an ``InvalidParameterError``."""


class SgSimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SgSimError, ValueError):
    """A constructor or operation received parameters violating its invariants."""


class DomainError(SgSimError, ValueError):
    """An operation was evaluated outside its domain of validity (e.g. bad times)."""


class ExtentError(SgSimError, ValueError):
    """A grid is too small to hold, or too coarse to resolve, the wave
    function it is asked to carry."""


class NoSplitError(SgSimError, ValueError):
    """The beam does not split, so a split-dependent quantity is undefined."""


class ConfigError(SgSimError, ValueError):
    """A run configuration file or override could not be parsed."""

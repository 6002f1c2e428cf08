"""Exception hierarchy shared by all modules."""


class QRepSimError(Exception):
    """Base class for everything this package raises on purpose."""


class ConfigurationError(QRepSimError):
    """Invalid configuration value, profile, or file (CLI exit code 2)."""


class PlacementError(QRepSimError):
    """An object could not be placed on any node (CLI exit code 2)."""


class EvictionError(QRepSimError):
    """Not enough evictable space to satisfy a placement."""


class CompareError(QRepSimError):
    """Run directories cannot be compared (missing or incompatible)."""

"""Exception hierarchy shared by all modules.

Exceptions mark faults: bad input or a broken store invariant. Ordinary
outcomes, such as a node that cannot make room for a replica, are return
values."""


class QRepSimError(Exception):
    """Base class for everything this package raises on purpose."""


class ConfigurationError(QRepSimError):
    """Invalid configuration value, profile, or file (CLI exit code 2)."""


class PlacementError(QRepSimError):
    """An object could not be placed on any node (CLI exit code 2)."""


class CompareError(QRepSimError):
    """Run directories cannot be compared (missing or incompatible)."""

"""Exception hierarchy shared across the package."""


class MplqError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MplqError):
    """An instance-generator or solver configuration is invalid."""


class InstanceFormatError(MplqError):
    """An instance/solution file could not be parsed or fails schema checks."""


class ParameterError(MplqError):
    """A numeric argument is outside its valid domain (e.g. zero speed)."""


class ShapeError(MplqError):
    """A state or matrix has the wrong dimensions or references unknown ids."""


class NothingToSolveError(MplqError):
    """The task pool is empty or every plan of it costs nothing: there is nothing to optimize."""


class OverCapacityError(MplqError):
    """A task demands more parcels than a locker holds, so no plan can serve its pool."""


class SearchSpaceLimitError(MplqError):
    """The exact oracle was refused: the pool's task sets need too many route schedules."""


class UndefinedRateError(MplqError):
    """An improvement rate is undefined because the baseline reward is zero."""

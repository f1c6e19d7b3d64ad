"""Exception types shared across the package.

Service-layer errors map onto wire status codes (see worker._ERROR_STATUS,
which matches subclasses too); infrastructure errors never cross the wire.
"""
from __future__ import annotations


class EdgeSliceError(Exception):
    """Base class for all package errors."""


# --- service-layer errors (have a wire status code) ---

class NotFoundError(EdgeSliceError):
    pass


class BadRequestError(EdgeSliceError):
    pass


class ConflictError(EdgeSliceError):
    pass


# --- function lifecycle / registry errors ---

class ImageNotFoundError(EdgeSliceError):
    pass


class ImageNotCachedError(EdgeSliceError):
    pass


class AlreadyRunningError(EdgeSliceError):
    pass


class NotRunningError(EdgeSliceError):
    pass


class WorkerQuotaExceededError(EdgeSliceError):
    pass


# --- orchestration errors ---

class NoEdgeAvailableError(EdgeSliceError):
    pass


class UnknownSliceError(EdgeSliceError):
    pass


# --- offload / sync errors ---

class AlreadyOffloadedError(EdgeSliceError):
    pass


class AlreadyBoundError(EdgeSliceError):
    pass


class UnknownBindingError(EdgeSliceError):
    pass


# --- simulator / harness errors ---

class NoRouteError(EdgeSliceError):
    pass


class ConfigInvalidError(EdgeSliceError):
    pass


class SimulationLimitError(EdgeSliceError):
    """A run executed more events than its cap allows."""

"""Exception types shared across the package.

A node answers every package error a request raises with the status that
``primitives.error_response`` maps its class to: ``NotFoundError`` and its
subclasses 4004, ``ConflictError`` and its subclasses 4009, any other 4000.
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


class UnknownSliceError(NotFoundError):
    pass


# --- offload / sync errors ---

class AlreadyBoundError(EdgeSliceError):
    pass


class UnknownBindingError(NotFoundError):
    pass


# --- simulator / harness errors ---

class NoRouteError(EdgeSliceError):
    pass


class ConfigInvalidError(EdgeSliceError):
    pass


class SimulationLimitError(EdgeSliceError):
    """A run that could not finish: it executed more events than its cap
    allows, or a request it sent was never answered."""

"""Shared exception types."""


class ShapeError(ValueError):
    """Operand shapes do not line up."""


class DegenerateReferenceError(ValueError):
    """Relative comparison against a zero-norm reference."""


class StateError(RuntimeError):
    """Layer state used out of order (e.g. stepping before warm-up)."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite. Carries the epoch where it happened."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""

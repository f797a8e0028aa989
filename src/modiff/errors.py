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


class NonFiniteError(ArithmeticError):
    """A layer output became inf or NaN during sampling."""

    def __init__(self, t, layer, mode):
        super().__init__(t, layer, mode)  # the args re-raise it from a worker process
        self.t, self.layer, self.mode = t, layer, mode

    def __str__(self):
        return f"non-finite output at t={self.t}, layer {self.layer}, mode {self.mode}"

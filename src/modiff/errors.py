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
    """A sampled value became inf or NaN: a layer output, one of the step's
    diagnostics, or the drift against the fp run; `what` names it."""

    def __init__(self, t, layer, mode, what="output"):
        super().__init__(t, layer, mode, what)  # the args re-raise it from a worker process
        self.t, self.layer, self.mode, self.what = t, layer, mode, what

    def __str__(self):
        return f"non-finite {self.what} at t={self.t}, layer {self.layer}, mode {self.mode}"

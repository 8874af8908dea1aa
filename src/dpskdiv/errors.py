"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """Invalid branch, spectrum, sweep, or command configuration."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure hit its resource cap before reaching
    tolerance.

    Carries the last two iterates so callers can judge how close it got.
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous

"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """Invalid branch, spectrum, sweep, or command configuration."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure hit its resource cap before reaching
    tolerance.

    The message gives the last two iterates, so the reader can judge how
    close it got.
    """

"""Maximum-likelihood reference for the sign detector.

dpskdiv.simulate.decide is the weighted sign detector the kernel runs; the
tests check that it picks the hypothesis that loglik_metric scores higher.
Nothing in dpskdiv calls this.
"""

import numpy as np

from dpskdiv import ConfigError


def loglik_metric(z_prev: np.ndarray, z_curr: np.ndarray, rho, r0, m: int):
    """Log-likelihood of (..., L) outputs under phase difference pi*m.

    Sums over the last axis, per branch, the log density of z_curr
    conditioned on z_prev (a complex Gaussian whose mean is proportional to
    z_prev rotated by the hypothesis) plus the marginal log density of
    z_prev, with eb = n0 = 1; the hypothesis-independent constant is
    dropped.
    """
    if m not in (0, 1):
        raise ConfigError(f"hypothesis m must be 0 or 1, got {m}")
    sign = 1.0 if m == 0 else -1.0
    r1 = rho * r0
    s2 = 2.0 * r0 + 1.0
    mean_coef = 2.0 * r1 / s2
    var_c = s2 - (2.0 * r1) ** 2 / s2
    diff = z_curr - sign * mean_coef * z_prev
    return np.sum(-np.log(np.pi * var_c) - np.abs(diff) ** 2 / var_c
                  - np.log(np.pi * s2) - np.abs(z_prev) ** 2 / s2, axis=-1)

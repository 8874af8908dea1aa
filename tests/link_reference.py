"""Link-level reference for the simulator kernel.

observe draws each branch's fading and noise apart, from 8 standard normals,
and decide is the weighted complex sign detector; loglik_metric scores the
two hypotheses by maximum likelihood, and ml_weights reads the weights of the
optimum detector off that metric.  pair_statistic forms the bit-0
statistic from the pair (z_prev, z_curr) alone, drawn from 4 standard
normals per branch.  The tests check the channel model and the detector on
these functions, and check that dpskdiv.simulate, which draws L
exponentials and one normal for each trial whose normal is negative,
reproduces their statistic and error rate.  Nothing in dpskdiv calls this,
and it imports only numpy and the standard library, so it borrows no
routine from the code it checks.
"""

import math

import numpy as np


def observe(g: np.ndarray, rho, r0, rot):
    """Matched-filter outputs (z_prev, z_curr) of two adjacent bits.

    g is a (..., L, 8) block of standard normals; rho and r0 = gamma/2 are
    per-branch and rot = +1 or -1 is the data phase (0 or pi), all
    broadcasting against (..., L).  Columns 0:4 give the fading pair,
    a_curr = rho a_prev + sqrt(1 - rho^2) innovation, each of power 2 r0;
    columns 4:8 give the noise, so z_prev = a_prev + n_prev and
    z_curr = rot a_curr + n_curr with eb = n0 = 1.
    """
    sd = np.sqrt(r0)
    a_prev = sd * (g[..., 0] + 1j * g[..., 1])
    a_curr = rho * a_prev + np.sqrt(1.0 - rho ** 2) * sd * (g[..., 2] + 1j * g[..., 3])
    nsd = math.sqrt(0.5)
    z_prev = a_prev + nsd * (g[..., 4] + 1j * g[..., 5])
    z_curr = rot * a_curr + nsd * (g[..., 6] + 1j * g[..., 7])
    return z_prev, z_curr


def decide(z_prev: np.ndarray, z_curr: np.ndarray, weights) -> np.ndarray:
    """Sign detector over (..., L) outputs: True (bit 1) where
    Re[sum_i w_i z_curr_i conj(z_prev_i)] < 0.

    An exactly zero statistic decides 0 (measure-zero tie, fixed for
    determinism).
    """
    stat = (z_curr * np.conj(z_prev)).real @ weights
    return stat < 0.0


def _conditional(rho, r0):
    """(s2, c, v): E|z_prev|^2 = s2, and z_curr given z_prev under phase
    difference 0 has mean c z_prev and variance v (eb = n0 = 1)."""
    r1 = rho * r0
    s2 = 2.0 * r0 + 1.0
    return s2, 2.0 * r1 / s2, s2 - (2.0 * r1) ** 2 / s2


def loglik_metric(z_prev: np.ndarray, z_curr: np.ndarray, rho, r0, m: int):
    """Log-likelihood of (..., L) outputs under phase difference pi*m.

    Sums over the last axis, per branch, the log density of z_curr
    conditioned on z_prev (a complex Gaussian whose mean is proportional to
    z_prev rotated by the hypothesis) plus the marginal log density of
    z_prev, with eb = n0 = 1; the hypothesis-independent constant is
    dropped.
    """
    if m not in (0, 1):
        raise ValueError(f"hypothesis m must be 0 or 1, got {m}")
    sign = 1.0 if m == 0 else -1.0
    s2, mean_coef, var_c = _conditional(rho, r0)
    diff = z_curr - sign * mean_coef * z_prev
    return np.sum(-np.log(np.pi * var_c) - np.abs(diff) ** 2 / var_c
                  - np.log(np.pi * s2) - np.abs(z_prev) ** 2 / s2, axis=-1)


def ml_weights(rho, r0):
    """Maximum-likelihood combining weights, broadcasting over branches.

    loglik_metric(..., 0) - loglik_metric(..., 1) is, per branch,
    (|z_curr + c z_prev|^2 - |z_curr - c z_prev|^2) / v
    = 4 (c / v) Re(z_curr conj(z_prev)), so the weight is c / v.
    """
    _, mean_coef, var_c = _conditional(rho, r0)
    return mean_coef / var_c


def pair_statistic(v: np.ndarray, a, b) -> np.ndarray:
    """Bit-0 detector statistic sum_i a_i (v0^2 + v1^2) + b_i (v0 v2 + v1 v3)
    of each trial of an (m, 4, L) block of standard normals, row k of a trial
    holding vk of every branch; a and b are dpskdiv.simulate._coefficients.

    With z_prev = sqrt((1 + gamma) / 2) (v0 + i v1) and
    z_curr = c z_prev + sqrt(e / 2) (v2 + i v3), this is
    sum_i w_i Re(z_curr conj(z_prev)) in real arithmetic (c and e as in the
    dpskdiv.simulate docstring).
    """
    return (v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) @ a + (v[:, 0] * v[:, 2] + v[:, 1] * v[:, 3]) @ b

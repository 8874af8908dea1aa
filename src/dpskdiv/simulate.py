"""Monte Carlo link simulator for DPSK diversity reception.

The detector sees branch i only through the matched-filter outputs
(z_prev, z_curr) of two adjacent bits, and the Doppler spectrum enters
solely through rho, computed by the channel module.  Given bit 0, the pair
is zero-mean complex Gaussian with E|z|^2 = 1 + gamma and
E[z_curr conj(z_prev)] = rho gamma (eb = n0 = 1).  With four standard
normals v0..v3 per branch it can be written

    z_prev = sqrt((1 + gamma) / 2) (v0 + i v1),
    z_curr = c z_prev + sqrt(e / 2) (v2 + i v3),
    c = rho gamma / (1 + gamma),
    e = (1 + gamma (1 - rho)) (1 + gamma (1 + rho)) / (1 + gamma).

Bit 1 flips the sign of z_curr, which maps it onto bit 0 exactly, so the
kernel conditions on bit 0.  The statistic sum_i w_i Re(z_curr conj(z_prev))
is then S = sum_i a_i (v0^2 + v1^2) + b_i (v0 v2 + v1 v3) in real
arithmetic (see _coefficients), and a negative statistic is an error.

The kernel does not draw the v's.  Given (v0, v1), the cross term
v0 v2 + v1 v3 is N(0, R_i) with R_i = v0^2 + v1^2 = 2 E_i, and E_i is a
standard exponential.  Branches are independent, so the cross terms add to
one normal, and S has exactly the law of

    2 sum_i a_i E_i + sqrt(2 sum_i b_i^2 E_i) Z,    Z ~ N(0, 1)

(the conditional-Gaussian form of a Hermitian quadratic form; Proakis,
Digital Communications, App. B).  A trial therefore draws L exponentials
and one normal instead of 4L normals; each trial is still an independent
draw of S, so the error count is binomial.  The kernel forms S / 2.

A zero statistic decides 0, an error for bit 1 only, so each tie is an
error with probability 1/2.  Ties have probability zero unless every term
vanishes, as for the optimum detector when every rho_i gamma_i is 0 and the
weights are all 0.

The link-level model, which draws the fading and the noise of each output
apart, the complex sign detector and the four-normal pair statistic are
the reference in the tests (tests/link_reference.py); the tests check this
kernel's statistic and error rate against them.

Reproducibility contract
------------------------
Trials are split into fixed-size batches of TRIALS_PER_BATCH.  Batch b is
generated from its own counter-based stream, Philox keyed by the 64-bit
seed with counter b << 64, so any assignment of batches to workers yields
the same totals.  Within a batch the draw order is (stream v4):

1. numpy's ziggurat standard_normal(trials), the Z of every trial;
2. a (trials, L) block of numpy's ziggurat standard_exponential, row t
   holding E_1..E_L of trial t;
3. one binomial draw, Binomial(ties, 1/2), for the batch's ties.

The ziggurats' tables belong to numpy, so the stream is pinned to numpy's
Generator as well as to Philox: a port needs numpy's normal and exponential
ziggurats and its binomial sampler.  Changing TRIALS_PER_BATCH changes the
stream layout and therefore the estimates; it is a contract constant, not a
tuning knob.

The kernel draws and processes the exponential block in consecutive
sub-blocks of trials, reusing one buffer.  Filling consecutive slices
continues the same stream, so the sub-blocks hold exactly the numbers of one
whole-block draw: the sub-block size bounds the memory per batch and is not
a contract constant.

numpy is imported inside the functions that draw and count, so importing
this module, or reading TRIALS_PER_BATCH or BepEstimate, loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Tuple

from .channel import Detector, DiversityConfig
from .errors import ConfigError

TRIALS_PER_BATCH = 1 << 17
_SUB_BLOCK = 8192
_MASK64 = (1 << 64) - 1
_MIN_ERRORS_FOR_STOP = 100
_Z95 = 1.96


@dataclass(frozen=True)
class BepEstimate:
    errors: int
    trials: int
    p_hat: float
    ci95_halfwidth: float
    seed: int
    early_stopped: bool = False


def _wald95(errors: int, trials: int) -> float:
    p = errors / trials
    return _Z95 * math.sqrt(p * (1.0 - p) / trials)


def _ci95(errors: int, trials: int) -> float:
    """The larger half-width, max(hi - p, p - lo), of the 95% Wilson score
    interval (lo, hi) around p = errors / trials: unlike the Wald interval it
    is not 0 when no error, or every trial, was seen."""
    p, z2 = errors / trials, _Z95 * _Z95 / trials
    centre = (p + 0.5 * z2) / (1.0 + z2)
    return abs(centre - p) + _Z95 * math.sqrt((p * (1.0 - p) + 0.25 * z2) / trials) / (1.0 + z2)


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(np.random.Philox(key=seed, counter=batch << 64))


def _coefficients(cfg: DiversityConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Per-branch (a, b) of the bit-0 statistic sum_i a_i (v0^2 + v1^2) +
    b_i (v0 v2 + v1 v3), from the eigenvalues p = 1 + gamma + rho gamma and
    m = 1 + gamma (1 - rho) of the pair covariance.  Unit weights give
    a = rho gamma / 2 and b = sqrt(p m) / 2; the optimum detector scales both
    by the likelihood-ratio weight rho gamma / (p m).  Both are formed as
    ratios, so no subnormal weight forms on the way, and b takes two roots:
    p m overflows from gamma ~ 1e154.
    """
    import numpy as np
    a, b = [], []
    for br in cfg.branches:
        rg = br.rho * br.gamma
        p, m = 1.0 + br.gamma + rg, 1.0 + br.gamma * (1.0 - br.rho)
        if cfg.detector is Detector.OPTIMUM:
            a.append((rg / p) * (rg / m) / 2.0)
            b.append(rg / math.sqrt(p) / math.sqrt(m) / 2.0)
        else:
            a.append(rg / 2.0)
            b.append(math.sqrt(p) * math.sqrt(m) / 2.0)
    return np.array(a), np.array(b)


def _statistic(z: np.ndarray, e: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the bit-0 statistic of trials with normals z and (m, L) exponentials e."""
    return e @ a + (e @ (0.5 * b * b)) ** 0.5 * z


def _count_errors(rng: np.random.Generator, n: int, a: np.ndarray, b: np.ndarray) -> int:
    import numpy as np
    z, e = rng.standard_normal(n), np.empty((min(n, _SUB_BLOCK), len(a)))
    errors = ties = 0
    for zs in np.split(z, range(_SUB_BLOCK, n, _SUB_BLOCK)):
        stat = _statistic(zs, rng.standard_exponential(out=e[:len(zs)]), a, b)
        errors += int(np.count_nonzero(stat < 0.0))
        ties += int(np.count_nonzero(stat == 0.0))
    # a tie decides 0, an error for bit 1 only: each is an error with probability 1/2
    return errors + int(rng.binomial(ties, 0.5))


def estimate_bep(cfg: DiversityConfig, trials: int, seed: int, workers: int = 1,
                 stop_rel_tol: Optional[float] = None) -> BepEstimate:
    """Estimate the bit error probability by Monte Carlo over the link model.

    Batch totals are worker-count invariant.  ci95_halfwidth is the larger
    half-width of the 95% Wilson score interval.  With stop_rel_tol set, the
    run ends after the first batch, in batch order, at which the 95% Wald
    half-width is below stop_rel_tol * p_hat with at least 100 errors seen;
    batches after it that a wave already ran are dropped, so an early-stopped
    result is also the same for every worker count, and it is flagged.
    """
    from concurrent.futures import ThreadPoolExecutor
    trials = int(trials)
    if trials < 1:
        raise ConfigError(f"trials={trials} must be >= 1")
    workers = int(workers)
    if workers < 1:
        raise ConfigError(f"workers={workers} must be >= 1")
    if stop_rel_tol is not None and not stop_rel_tol > 0.0:
        raise ConfigError(f"stop_rel_tol={stop_rel_tol} must be positive")
    seed = int(seed) & _MASK64
    # only the statistic's sign counts: scaling a and b by a power of two scales
    # b^2 by a power of four, which the square root undoes exactly, and the
    # largest coefficient in [0.5, 1) keeps b^2 <= 1 and the statistic finite
    # at any valid gamma; ldexp scales each value, as 2^-e itself overflows
    # once the largest coefficient is below 2^-1024
    import numpy as np
    a, b = _coefficients(cfg)
    e = math.frexp(max(a.max(), b.max()))[1]
    coef = (np.ldexp(a, -e), np.ldexp(b, -e))

    n_batches = (trials + TRIALS_PER_BATCH - 1) // TRIALS_PER_BATCH

    def run_batch(b: int) -> int:
        size = min(TRIALS_PER_BATCH, trials - b * TRIALS_PER_BATCH)
        return _count_errors(_batch_rng(seed, b), size, *coef)

    errors = done = 0
    early = False
    waves = (range(s, min(s + workers, n_batches)) for s in range(0, n_batches, workers))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for b, batch_errors in chain.from_iterable(zip(w, pool.map(run_batch, w)) for w in waves):
            errors += batch_errors
            done = min((b + 1) * TRIALS_PER_BATCH, trials)
            if (stop_rel_tol is not None and errors >= _MIN_ERRORS_FOR_STOP
                    and _wald95(errors, done) < stop_rel_tol * (errors / done)):
                early = True
                break
    return BepEstimate(errors=errors, trials=done, p_hat=errors / done,
                       ci95_halfwidth=_ci95(errors, done), seed=seed,
                       early_stopped=early)

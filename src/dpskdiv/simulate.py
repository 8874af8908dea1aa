"""Monte Carlo link simulator for DPSK diversity reception.

Each trial draws one correlated fading pair per branch and one pair of
matched-filter outputs; the detectors only ever see the (previous, current)
joint statistics, so no full time series is needed.  The Doppler spectrum
enters solely through rho, computed by the channel module.

observe is the one channel model: it maps pre-drawn standard normals to
matched-filter outputs, and decide is the sign detector.  The batch kernel
runs exactly these two functions, so the tests that check the fading
correlation, the noise power and the detector check the code that
estimate_bep runs.

Reproducibility contract
------------------------
Trials are split into fixed-size batches of TRIALS_PER_BATCH.  Batch b is
generated from its own counter-based stream, Philox keyed by the 64-bit
seed with counter b << 64, so any assignment of batches to workers yields
the same totals.  Within a batch the draw order is: one uniform per trial
for the data bits, then a (trials, L, 8) block of numpy's ziggurat
standard_normal, columns 0:4 for the fading pair and 4:8 for the noise
(stream v2).  The ziggurat's tables belong to numpy, so the stream is
pinned to numpy's Generator.standard_normal as well as to Philox.
Changing TRIALS_PER_BATCH changes the stream layout and therefore the
estimates; it is a contract constant, not a tuning knob.

The kernel draws and processes a batch's block in consecutive sub-blocks of
trials, reusing one buffer.  Filling consecutive slices continues the same
stream, so the sub-blocks hold exactly the numbers of one whole-batch draw:
the sub-block size bounds the memory per batch and is not a contract
constant.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .bep import optimum_weights
from .channel import Detector, DiversityConfig
from .errors import ConfigError

TRIALS_PER_BATCH = 1 << 17
_SUB_BLOCK = 8192
_MASK64 = (1 << 64) - 1
_MIN_ERRORS_FOR_STOP = 100


@dataclass(frozen=True)
class BepEstimate:
    errors: int
    trials: int
    p_hat: float
    ci95_halfwidth: float
    seed: int
    detector: Detector
    early_stopped: bool = False


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


def _detector_weights(cfg: DiversityConfig) -> np.ndarray:
    if cfg.detector is Detector.OPTIMUM:
        return np.array(optimum_weights(cfg.branches))
    return np.ones(len(cfg.branches))


def _ci95(errors: int, trials: int) -> float:
    p = errors / trials
    return 1.96 * math.sqrt(p * (1.0 - p) / trials)


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=batch << 64))


def _count_errors(rng: np.random.Generator, n: int, rho: np.ndarray, r0: np.ndarray,
                  weights: np.ndarray) -> int:
    bits = rng.random(n) < 0.5
    rot = np.where(bits, -1.0, 1.0)[:, None]
    u = np.empty((min(n, _SUB_BLOCK), len(rho), 8))
    errors = 0
    for s in range(0, n, _SUB_BLOCK):
        m = min(_SUB_BLOCK, n - s)
        g = rng.standard_normal(out=u[:m])
        z_prev, z_curr = observe(g, rho, r0, rot[s:s + m])
        errors += int(np.count_nonzero(decide(z_prev, z_curr, weights) != bits[s:s + m]))
    return errors


def estimate_bep(cfg: DiversityConfig, trials: int, seed: int, workers: int = 1,
                 stop_rel_tol: Optional[float] = None) -> BepEstimate:
    """Estimate the bit error probability by simulating random bits.

    Batch totals are worker-count invariant.  With stop_rel_tol set, the run
    ends after the first batch, in batch order, at which the 95% half-width
    is below stop_rel_tol * p_hat with at least 100 errors seen; batches
    after it that a wave already ran are dropped, so an early-stopped result
    is also the same for every worker count, and it is flagged.
    """
    trials = int(trials)
    if trials < 1:
        raise ConfigError(f"trials={trials} must be >= 1")
    workers = int(workers)
    if workers < 1:
        raise ConfigError(f"workers={workers} must be >= 1")
    if stop_rel_tol is not None and not stop_rel_tol > 0.0:
        raise ConfigError(f"stop_rel_tol={stop_rel_tol} must be positive")
    seed = int(seed) & _MASK64
    rho = np.array([br.rho for br in cfg.branches])
    r0 = np.array([0.5 * br.gamma for br in cfg.branches])
    weights = _detector_weights(cfg)

    n_batches = (trials + TRIALS_PER_BATCH - 1) // TRIALS_PER_BATCH

    def run_batch(b: int) -> int:
        size = min(TRIALS_PER_BATCH, trials - b * TRIALS_PER_BATCH)
        return _count_errors(_batch_rng(seed, b), size, rho, r0, weights)

    errors = done = 0
    early = False
    waves = (range(s, min(s + workers, n_batches)) for s in range(0, n_batches, workers))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for b, batch_errors in chain.from_iterable(zip(w, pool.map(run_batch, w)) for w in waves):
            errors += batch_errors
            done = min((b + 1) * TRIALS_PER_BATCH, trials)
            if (stop_rel_tol is not None and errors >= _MIN_ERRORS_FOR_STOP
                    and _ci95(errors, done) < stop_rel_tol * (errors / done)):
                early = True
                break
    return BepEstimate(errors=errors, trials=done, p_hat=errors / done,
                       ci95_halfwidth=_ci95(errors, done), seed=seed,
                       detector=cfg.detector, early_stopped=early)

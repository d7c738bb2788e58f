"""Independent Monte Carlo oracle for the co-phased received SNR.

Per trial the oracle draws every envelope (cascade pairs per element plus
the direct link), forms

    Z = sum_l rho_l * sum_m sqrt(beta_lm^-1) |g_lm| |h_lm|
        + rho_0 sqrt(beta_0^-1) |h_0|,

sets SNR = gamma_teff * Z^2, and averages log2(1 + SNR).  gamma_teff is
the deterministic effective transmit SNR computed upstream from the
expected effective-noise power; the oracle does not re-draw the
outdated-CSI noise per realization (that would estimate a different
quantity).

Determinism contract: trials are partitioned into fixed-size blocks and
block i draws from an independent Philox substream keyed (seed, i).
Per-block partial sums are reduced in block order with exact summation
(math.fsum), so the result is bit-identical for any worker count.

Ensembles with equal draw signatures (SnrEnsemble.draw_signature) consume
identical draws from a block's substream, so simulate_ec_sweep draws each
block once and evaluates every such ensemble from it; each estimate is
bit-identical to simulating that ensemble alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import (
    PanelChannel,
    RicianParams,
    rician_envelope_from_normals,
    sample_rician_envelope,
)
from .errors import InvalidScenario, ScenarioError


def check_run_settings(trials: Optional[int], seed: int, workers: int = 1, prefix: str = ""):
    """Reject trials below 1 (None means no Monte Carlo), a seed outside
    [0, 2**64) and fewer than one worker, naming the field after prefix."""
    if trials is not None and trials < 1:
        raise ScenarioError(f"{prefix}trials: must be >= 1, got {trials}")
    if not (0 <= seed < 2**64):
        raise ScenarioError(f"{prefix}seed: must lie in [0, 2**64), got {seed}")
    if workers < 1:
        raise ScenarioError(f"{prefix}workers: must be >= 1, got {workers}")


@dataclass(frozen=True)
class TrialConfig:
    """Trial count, RNG seed, and the deterministic block partition.

    (trials, seed, block_size) fully determine every estimate; worker
    count never does.
    """

    trials: int
    seed: int
    block_size: int = 2048

    def __post_init__(self):
        check_run_settings(self.trials, self.seed)
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """Sample-mean capacity with its standard error."""

    mean_ec: float
    std_error: float
    snr_samples: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SnrEnsemble:
    """Everything the oracle needs: resolved path losses, fading factors,
    aging coefficients, and the precomputed effective transmit SNR."""

    panels: tuple[PanelChannel, ...]
    beta0_inv: float
    rho0: float
    k0: float
    gamma_teff: float
    los_phase_direct: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "panels", tuple(self.panels))
        if self.beta0_inv < 0:
            raise ValueError("direct inverse loss must be >= 0")
        if not (0.0 <= self.rho0 <= 1.0):
            raise ValueError("rho0 must lie in [0, 1]")
        if self.gamma_teff <= 0:
            raise ValueError("gamma_teff must be positive")
        if not self.panels and self.beta0_inv == 0:
            raise InvalidScenario("no reflecting elements and no direct link")

    def draw_signature(self) -> tuple:
        """What fixes a trial block's draws and envelope transforms: per
        panel the element count, K-factors and LoS phases, plus the direct
        link's LoS phase.  Ensembles with equal signatures can share every
        block; path losses, correlations, k0 and gamma_teff may differ."""
        return (
            tuple(
                (p.beta_inv.size, p.k1, p.k2, p.los_phase_h, p.los_phase_g)
                for p in self.panels
            ),
            self.los_phase_direct,
        )


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Philox substream for one block; keys (seed, index) never collide."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_envelope_sums(
    ensembles: Sequence[SnrEnsemble], rng, n: int
) -> list[np.ndarray]:
    """Draw n trials once and return the co-phased envelope sum Z of each
    ensemble (all sharing one draw signature).

    Draw order is fixed (panels in order, BS-side fade then user-side fade,
    direct link's in-phase then quadrature normals last) so a block's
    samples depend only on its substream.
    """
    first = ensembles[0]
    zs = [np.zeros(n) for _ in ensembles]
    for i, panel in enumerate(first.panels):
        m = panel.beta_inv.size
        hg = sample_rician_envelope(
            RicianParams(panel.k1), rng, panel.los_phase_h, size=(n, m)
        )
        hg *= sample_rician_envelope(
            RicianParams(panel.k2), rng, panel.los_phase_g, size=(n, m)
        )
        for z, ensemble in zip(zs, ensembles):
            p = ensemble.panels[i]
            z += p.rho * (hg @ np.sqrt(p.beta_inv))
    re0 = rng.standard_normal(n)
    im0 = rng.standard_normal(n)
    for z, ensemble in zip(zs, ensembles):
        h0 = rician_envelope_from_normals(
            RicianParams(ensemble.k0), first.los_phase_direct, re0.copy(), im0.copy()
        )
        z += ensemble.rho0 * math.sqrt(ensemble.beta0_inv) * h0
    return zs


def _block_plan(cfg: TrialConfig) -> list[tuple[int, int]]:
    """(block_index, trials_in_block) pairs covering cfg.trials."""
    plan = []
    done = 0
    index = 0
    while done < cfg.trials:
        n = min(cfg.block_size, cfg.trials - done)
        plan.append((index, n))
        done += n
        index += 1
    return plan


def _run_blocks(
    ensembles: Sequence[SnrEnsemble], cfg: TrialConfig, workers: int, worker_fn
):
    """worker_fn(per-ensemble Z list) for every block, in block order."""
    if not ensembles:
        raise ValueError("need at least one ensemble")
    if len({e.draw_signature() for e in ensembles}) > 1:
        raise ValueError("ensembles must share one draw signature")
    plan = _block_plan(cfg)

    def task(item):
        index, n = item
        rng = _block_rng(cfg.seed, index)
        return worker_fn(_block_envelope_sums(ensembles, rng, n))

    if workers <= 1:
        return [task(item) for item in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, plan))


def _mean_and_stderr(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def simulate_ec_sweep(
    ensembles: Sequence[SnrEnsemble],
    cfg: TrialConfig,
    workers: int = 1,
    keep_samples: bool = False,
) -> list[McEstimate]:
    """Estimate the ergodic capacity of each ensemble from one shared set
    of draws.  The ensembles must share one draw signature; each estimate
    is bit-identical to simulating its ensemble alone, for any worker
    count."""
    ensembles = tuple(ensembles)

    def reduce_block(zs: list[np.ndarray]):
        parts = []
        for ensemble, z in zip(ensembles, zs):
            snr = ensemble.gamma_teff * z * z
            ec = np.log2(1.0 + snr)
            parts.append(
                (float(np.sum(ec)), float(np.sum(ec * ec)), snr if keep_samples else None)
            )
        return parts

    blocks = _run_blocks(ensembles, cfg, workers, reduce_block)
    estimates = []
    for j in range(len(ensembles)):
        parts = [block[j] for block in blocks]
        total = math.fsum(p[0] for p in parts)
        total_sq = math.fsum(p[1] for p in parts)
        mean, stderr = _mean_and_stderr(total, total_sq, cfg.trials)
        samples = np.concatenate([p[2] for p in parts]) if keep_samples else None
        estimates.append(McEstimate(mean_ec=mean, std_error=stderr, snr_samples=samples))
    return estimates


def simulate_ec(
    ensemble: SnrEnsemble,
    cfg: TrialConfig,
    workers: int = 1,
    keep_samples: bool = False,
) -> McEstimate:
    """Estimate the ergodic capacity; bit-identical for any worker count."""
    return simulate_ec_sweep([ensemble], cfg, workers, keep_samples)[0]


def empirical_snr_cdf(
    ensemble: SnrEnsemble,
    cfg: TrialConfig,
    grid: Sequence[float],
    workers: int = 1,
) -> np.ndarray:
    """Empirical P(SNR <= g) on the given grid."""
    estimate = simulate_ec(ensemble, cfg, workers=workers, keep_samples=True)
    samples = np.sort(estimate.snr_samples)
    grid = np.asarray(grid, dtype=float)
    return np.searchsorted(samples, grid, side="right") / samples.size


@dataclass(frozen=True)
class EnvelopeMomentEstimate:
    """Sample mean and raw second moment of Z with standard errors."""

    mean: float
    second_moment: float
    se_mean: float
    se_second_moment: float


def simulate_envelope_moments(
    ensemble: SnrEnsemble, cfg: TrialConfig, workers: int = 1
) -> EnvelopeMomentEstimate:
    """Sample moments of the envelope sum itself (validates the analytic
    moment layer independently of the capacity layer)."""

    def reduce_block(zs: list[np.ndarray]):
        (z,) = zs
        z2 = z * z
        return (
            float(np.sum(z)),
            float(np.sum(z2)),
            float(np.sum(z2)),
            float(np.sum(z2 * z2)),
        )

    parts = _run_blocks([ensemble], cfg, workers, reduce_block)
    n = cfg.trials
    mean, se_mean = _mean_and_stderr(
        math.fsum(p[0] for p in parts), math.fsum(p[1] for p in parts), n
    )
    m2, se_m2 = _mean_and_stderr(
        math.fsum(p[2] for p in parts), math.fsum(p[3] for p in parts), n
    )
    return EnvelopeMomentEstimate(
        mean=mean, second_moment=m2, se_mean=se_mean, se_second_moment=se_m2
    )

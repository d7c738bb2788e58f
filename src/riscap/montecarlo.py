"""Independent Monte Carlo oracle for the co-phased received SNR.

Per trial the oracle draws every envelope (cascade pairs per element plus
the direct link), forms, with each PanelChannel's amplitudes sqrt(beta_lm^-1)
(the workbench keeps them for every panel of a run with trials; a panel
that carries none is refused, naming it),

    Z = sum_l rho_l * sum_m sqrt(beta_lm^-1) |g_lm| |h_lm|
        + rho_0 sqrt(beta_0^-1) |h_0|,

sets SNR = gamma_teff * Z^2, and averages log2(1 + SNR).  gamma_teff is
the deterministic effective transmit SNR computed upstream from the
expected effective-noise power; the oracle does not re-draw the
outdated-CSI noise per realization (that would estimate a different
quantity).  simulate_ec_sweep is the one reduction: the capacity mean and
its standard error.

Determinism contract: trials are partitioned into fixed-size blocks and
block i draws from an independent Philox substream keyed (seed, i).
Blocks always run on a pool of ``workers`` threads; per-block sums are
reduced in block order (the mean with exact summation, math.fsum; the
squared deviations from each block's mean by Chan's pairwise update, so
a spread far below the mean does not cancel), so the result is
bit-identical for any worker count.  Generator and Philox are numpy.random's
own, loaded by special.import_bare from its two extensions without the
package __init__ (legacy mtrand), and with a stand-in secrets whose randbits
is secrets' own definition, without hashlib and OpenSSL: ~5 MB resident.

Ensembles with equal draw signatures (SnrEnsemble.draw_signature) consume
identical draws from a block's substream.  simulate_ec_sweep takes
ensembles of any signatures, groups them by signature itself, and draws
each block once per group; within a group, the panels that hold one
amplitude array (the workbench hands geometry-equal sweep points the
same read-only array) share each block's product of draws and
amplitudes.  Each estimate is bit-identical to simulating that ensemble
alone.

Memory: a worker holds two arrays of block_size x M x 8 bytes (|h|, then
g), e.g. 328 MB at M = 10^4 with the default 2048-trial blocks, and up to
min(workers, block count) blocks run at once.  Blocks whose arrays
together exceed physical memory are a ScenarioError naming trials, the
block size and the element count, and the worker count where more than
one block runs at once; so is a block whose allocation fails, which also
names the worker count.
"""

from __future__ import annotations

import math
import numbers
import os
import random
import types
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
from .special import import_bare

try:  # a numpy.random already imported is used as it is
    _secrets = types.ModuleType("secrets")
    _secrets.randbits = random.SystemRandom().getrandbits  # as secrets defines it
    Generator = import_bare("numpy.random._generator", secrets=_secrets).Generator
    Philox = import_bare("numpy.random._philox").Philox
except (ImportError, AttributeError):
    from numpy.random import Generator, Philox


def _integer(field: str, value):
    """value, if an integer (numpy's too, bool not); else ScenarioError naming field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioError(f"must be an integer, got {value!r}", (field,))
    return value


def check_run_settings(trials: Optional[int], seed: int, workers: int = 1):
    """Reject a non-integer, trials below 1 (None means no Monte Carlo), a
    seed outside [0, 2**64) and fewer than one worker, naming the field."""
    if trials is not None and _integer("trials", trials) < 1:
        raise ScenarioError(f"must be >= 1, got {trials}", ("trials",))
    if not (0 <= _integer("seed", seed) < 2**64):
        raise ScenarioError(f"must lie in [0, 2**64), got {seed}", ("seed",))
    if _integer("workers", workers) < 1:
        raise ScenarioError(f"must be >= 1, got {workers}", ("workers",))


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
        if self.trials is None:  # "no Monte Carlo" only to the run functions
            raise ScenarioError("must be >= 1, got None", ("trials",))
        check_run_settings(self.trials, self.seed)
        if _integer("block_size", self.block_size) < 1:
            raise ScenarioError(f"must be >= 1, got {self.block_size}", ("block_size",))


@dataclass(frozen=True)
class McEstimate:
    """Sample-mean capacity with its standard error."""

    mean_ec: float
    std_error: float


@dataclass(frozen=True)
class SnrEnsemble:
    """Everything the oracle needs: panel amplitudes, direct inverse loss,
    fading factors, aging coefficients, and the effective transmit SNR."""

    panels: tuple[PanelChannel, ...]
    beta0_inv: float
    rho0: float
    k0: float
    gamma_teff: float

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
        panel the element count and K-factors.  Ensembles with equal
        signatures can share every block; amplitudes, correlations, k0
        and gamma_teff may differ."""
        return tuple((p.count, p.k1, p.k2) for p in self.panels)


def physical_memory() -> int:
    """Bytes of physical memory, or 2**63 where the system does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 2**63


def _block_rng(seed: int, block_index: int) -> Generator:
    """Philox substream for one block; keys (seed, index) never collide."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return Generator(Philox(key=key))


def _block_envelope_sums(
    ensembles: Sequence[SnrEnsemble], rng, n: int
) -> list[np.ndarray]:
    """Draw n trials once and return the co-phased envelope sum Z of each
    ensemble (all sharing one draw signature).  Ensembles whose panels
    hold the same amplitude array share its product with the draws.

    Draw order is fixed (panels in order, BS-side fade then user-side fade,
    direct link's in-phase then quadrature normals last) so a block's
    samples depend only on its substream.
    """
    first = ensembles[0]
    zs = [np.zeros(n) for _ in ensembles]
    for i, panel in enumerate(first.panels):
        m = panel.count
        hg = sample_rician_envelope(RicianParams(panel.k1), rng, size=(n, m))
        hg *= sample_rician_envelope(RicianParams(panel.k2), rng, size=(n, m))
        products = {}  # hg @ amplitude, once per amplitude array the ensembles share
        for z, ensemble in zip(zs, ensembles):
            p = ensemble.panels[i]
            key = id(p.amplitude)
            if key not in products:
                products[key] = hg @ p.amplitude
            z += p.rho * products[key]
    re0 = rng.standard_normal(n)
    im0 = rng.standard_normal(n)
    for z, ensemble in zip(zs, ensembles):
        h0 = rician_envelope_from_normals(RicianParams(ensemble.k0), re0.copy(), im0.copy())
        z += ensemble.rho0 * math.sqrt(ensemble.beta0_inv) * h0
    return zs


def _block_plan(cfg: TrialConfig) -> list[tuple[int, int]]:
    """(block_index, trials_in_block) pairs covering cfg.trials."""
    starts = range(0, cfg.trials, cfg.block_size)
    return [(i, min(cfg.block_size, cfg.trials - start)) for i, start in enumerate(starts)]


def simulate_ec_sweep(
    ensembles: Sequence[SnrEnsemble], cfg: TrialConfig, workers: int = 1
) -> list[McEstimate]:
    """Estimate the ergodic capacity of each ensemble, in input order.
    Ensembles that share a draw signature share every block's draws; each
    estimate is bit-identical to simulating its ensemble alone, for any
    worker count.  Every panel must carry its amplitudes."""
    check_run_settings(cfg.trials, cfg.seed, workers)
    ensembles = tuple(ensembles)
    if not ensembles:
        raise ValueError("need at least one ensemble")
    groups: dict[tuple, list[int]] = {}
    for j, ensemble in enumerate(ensembles):
        for i, panel in enumerate(ensemble.panels):
            if panel.amplitude is None:
                raise ValueError(
                    f"ensemble {j}, panel {i}: carries no amplitudes, which the draws need"
                )
        groups.setdefault(ensemble.draw_signature(), []).append(j)

    plan = _block_plan(cfg)
    block = min(cfg.block_size, cfg.trials)
    largest = max((p.count for e in ensembles for p in e.panels), default=0)
    running = min(workers, len(plan))  # blocks held at once, one per busy worker
    need = running * 16 * block * largest
    if need > physical_memory():
        held = f"a Monte Carlo block of {block} trials needs two {block} x {largest} float64 arrays"
        if running > 1:
            held = (
                f"{running} Monte Carlo blocks of {block} trials, run at once on {workers} workers, "
                f"need two {block} x {largest} float64 arrays each"
            )
        raise ScenarioError(
            f"{held} ({need / 2**30:.3g} GiB) for a panel of {largest} elements, "
            "more memory than this machine has",
            ("trials",),
        )

    def block_sums(item) -> list[tuple[float, float]]:
        """Per ensemble, the block's sum of log2(1 + SNR) and its sum of
        squared deviations from the block mean; each group draws the block
        from its own fresh substream."""
        index, n = item
        sums: list[tuple[float, float]] = [(0.0, 0.0)] * len(ensembles)
        for indices in groups.values():
            group = [ensembles[i] for i in indices]
            zs = _block_envelope_sums(group, _block_rng(cfg.seed, index), n)
            for i, z in zip(indices, zs):
                ec = np.log2(1.0 + ensembles[i].gamma_teff * z * z)
                total = float(np.sum(ec))
                ec -= total / n
                sums[i] = (total, float(np.sum(ec * ec)))
        return sums

    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(block_sums, plan))
    except MemoryError:
        raise ScenarioError(
            f"allocating a Monte Carlo block of {block} trials for a panel of {largest} elements "
            f"with {workers} worker(s) failed; use fewer trials per block or fewer workers",
            ("trials",),
        ) from None

    n = cfg.trials
    estimates = []
    for j in range(len(ensembles)):
        # squared deviations merged block by block (Chan, Golub and LeVeque)
        seen, running, m2 = 0, 0.0, 0.0
        for (_, count), block in zip(plan, blocks):
            total, block_m2 = block[j]
            delta = total / count - running
            seen += count
            running += delta * count / seen
            m2 += block_m2 + delta * delta * (seen - count) * count / seen
        stderr = math.sqrt(m2 / (n - 1) / n) if n >= 2 else 0.0
        mean = math.fsum(block[j][0] for block in blocks) / n
        estimates.append(McEstimate(mean_ec=mean, std_error=stderr))
    return estimates

"""Rician envelope statistics and the outdated-CSI correlation model.

A unit-power Rician fade with factor K has envelope mean

    Omega(K) = sqrt(pi / (4*(1+K))) * L_half(-K)

with L_half the degree-1/2 Laguerre polynomial.  L_half at non-positive
arguments is evaluated through exponentially scaled modified Bessel
functions, which keeps the expression stable for arbitrarily large K (the
naive e^{x/2}*I(.) product would underflow near K ~ 1400).

CSI aging follows the classic isotropic-scattering autocorrelation:
rho = J0(2*pi*f_d*T_s) with f_d the maximum Doppler shift.

i0e, i1e and J0 are scipy.special's compiled ufuncs, loaded by
riscap.special without scipy.special's package __init__.

The envelope sampler takes the line-of-sight term real: the co-phased
analysis depends only on envelopes, whose law does not depend on that
phase.  CSI-error variances are 1 - Omega(K)^2, formed where they are used.

``PanelChannel`` is the one per-panel record: the element count, the
root sum sum(sqrt(beta^-1)) and power sum sum(beta^-1) that the moments
read, the aging correlation and K-factors, and the amplitudes
sqrt(beta^-1) only where the Monte Carlo oracle is to sample the panel.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import special
from .errors import NegativeCorrelation
from .units import SPEED_OF_LIGHT


@dataclass(frozen=True)
class RicianParams:
    """K-factor of a unit-total-power (E|h|^2 = 1) Rician fade.

    k = 0 is pure scattering, k = inf a deterministic unit-modulus channel.
    """

    k: float

    def __post_init__(self):
        if math.isnan(self.k) or self.k < 0:
            raise ValueError("Rician K-factor must be >= 0")


@dataclass(frozen=True)
class PanelChannel:
    """One panel as the moment formulas and the Monte Carlo oracle read it:
    its element count, the root sum sum(sqrt(beta^-1)) and the power sum
    sum(beta^-1) (either +inf when it overflows, for the caller to report),
    the panel-to-user aging correlation, the BS-to-panel and panel-to-user
    K-factors, and, when the Monte Carlo oracle is to sample the panel,
    each element's amplitude sqrt(beta^-1) (None otherwise: the moments
    read only the two sums)."""

    count: int
    root_sum: float
    power_sum: float
    rho: float
    k1: float
    k2: float
    amplitude: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.amplitude is not None:
            amplitude = np.asarray(self.amplitude, dtype=float)
            object.__setattr__(self, "amplitude", amplitude)
            if amplitude.ndim != 1 or amplitude.size == 0:
                raise ValueError("amplitude must be a non-empty 1-D array")
            if not (np.min(amplitude) >= 0 and np.max(amplitude) < math.inf):
                raise ValueError("amplitudes must be finite and >= 0")
            if amplitude.size != self.count:
                raise ValueError(f"amplitude has {amplitude.size} entries, count is {self.count}")
        if isinstance(self.count, bool) or not (
            isinstance(self.count, numbers.Integral) and self.count >= 1
        ):
            raise ValueError("count must be an integer >= 1")
        if not self.root_sum >= 0:
            raise ValueError("root_sum must be >= 0")
        if not self.power_sum >= 0:
            raise ValueError("power_sum must be >= 0")
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError("rho must lie in [0, 1]")


def laguerre_half(x: float) -> float:
    """Degree-1/2 Laguerre polynomial on x <= 0.

    Uses L_half(x) = e^{x/2} * ((1-x) I0(-x/2) - x I1(-x/2)); the scaled
    Bessel forms absorb the exponential exactly.
    """
    if x > 0:
        raise ValueError("laguerre_half is only defined here for x <= 0")
    z = -x / 2.0
    return (1.0 - x) * special.i0e(z) - x * special.i1e(z)


@functools.lru_cache(maxsize=256)  # a run asks per panel and scenario, on a few K-factors
def rician_mean_envelope(params: RicianParams) -> float:
    """Mean of the unit-power Rician envelope; in [sqrt(pi)/2, 1]."""
    k = params.k
    if math.isinf(k):
        return 1.0
    return math.sqrt(math.pi / (4.0 * (1.0 + k))) * laguerre_half(-k)


def outdated_correlation(fc: float, v: float, ts: float) -> float:
    """Doppler-aging correlation J0(2*pi*(fc*v/c)*ts).

    The aging model only admits rho in [0, 1]; past the first Bessel zero
    J0 goes negative and we refuse.
    """
    if fc < 0 or v < 0 or ts < 0:
        raise ValueError("fc, v, ts must all be >= 0")
    rho = float(special.j0(2.0 * math.pi * (fc * v / SPEED_OF_LIGHT) * ts))
    if rho < 0:
        raise NegativeCorrelation(
            f"J0 argument past first zero gives rho={rho:.6g}; supply rho directly"
        )
    return min(rho, 1.0)


_CHUNK_ELEMENTS = 32_768  # the sampler's quadrature-normal buffer: 256 KB, below L2


def sample_rician_envelope(params: RicianParams, rng: np.random.Generator, size):
    """Envelopes of unit-power Rician samples sqrt(K/(1+K)) + scatter, the
    scatter term circular complex Gaussian with power 1/(1+K), drawn as
    in-phase then quadrature normals.  The analysis depends only on
    envelopes, so the line-of-sight term is taken real.  The quadrature
    normals stream through one buffer: chunked standard_normal(out=) calls
    read the bit stream as one whole draw does, so the result is the same."""
    re = rng.standard_normal(size)
    flat = re.reshape(-1)
    buf = np.empty(min(flat.size, _CHUNK_ELEMENTS))
    for start in range(0, flat.size, _CHUNK_ELEMENTS):
        chunk = flat[start : start + _CHUNK_ELEMENTS]
        rician_envelope_from_normals(params, chunk, rng.standard_normal(out=buf[: chunk.size]))
    return re


def rician_envelope_from_normals(params: RicianParams, re, im):
    """Envelope of the Rician fade whose scatter term is built from the
    standard normals re (in-phase) and im (quadrature).

    Works in place: re and im are overwritten and re holds the returned
    envelope, so no further block-sized array is allocated.  Pass copies
    when the same normals feed several transforms.
    """
    k = params.k
    if math.isinf(k):
        s, scale = 1.0, 0.0
    else:
        s, scale = math.sqrt(k / (1.0 + k)), math.sqrt(1.0 / (2.0 * (1.0 + k)))
    re *= scale
    re += s
    im *= scale
    re *= re
    im *= im
    re += im
    return np.sqrt(re, out=re)

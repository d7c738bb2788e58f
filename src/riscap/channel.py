"""Rician envelope statistics and the outdated-CSI correlation model.

A unit-power Rician fade with factor K has envelope mean

    Omega(K) = sqrt(pi / (4*(1+K))) * L_half(-K)

with L_half the degree-1/2 Laguerre polynomial.  L_half at non-positive
arguments is evaluated through exponentially scaled modified Bessel
functions, which keeps the expression stable for arbitrarily large K (the
naive e^{x/2}*I(.) product would underflow near K ~ 1400).

CSI aging follows the classic isotropic-scattering autocorrelation:
rho = J0(2*pi*f_d*T_s) with f_d the maximum Doppler shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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


def laguerre_half(x: float) -> float:
    """Degree-1/2 Laguerre polynomial on x <= 0.

    Uses L_half(x) = e^{x/2} * ((1-x) I0(-x/2) - x I1(-x/2)); the scaled
    Bessel forms absorb the exponential exactly.
    """
    if x > 0:
        raise ValueError("laguerre_half is only defined here for x <= 0")
    z = -x / 2.0
    return (1.0 - x) * special.i0e(z) - x * special.i1e(z)


def rician_mean_envelope(params: RicianParams) -> float:
    """Mean of the unit-power Rician envelope; in [sqrt(pi)/2, 1]."""
    k = params.k
    if math.isinf(k):
        return 1.0
    return math.sqrt(math.pi / (4.0 * (1.0 + k))) * laguerre_half(-k)


def envelope_error_variance(params: RicianParams) -> float:
    """Per-component CSI-error variance, 1 - Omega(K)^2."""
    omega = rician_mean_envelope(params)
    return 1.0 - omega * omega


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


def sample_rician_envelope(
    params: RicianParams,
    rng: np.random.Generator,
    los_phase: float = 0.0,
    size=None,
):
    """Envelopes of unit-power Rician samples sqrt(K/(1+K)) e^{j los_phase}
    + scatter, the scatter term circular complex Gaussian with power
    1/(1+K), drawn as in-phase then quadrature normals.  The analysis
    depends only on envelopes, so los_phase is free; it defaults to 0 and
    exists so phase-invariance can be exercised."""
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return rician_envelope_from_normals(params, los_phase, re, im)


def rician_envelope_from_normals(
    params: RicianParams, los_phase: float, re, im
):
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
    re += s * math.cos(los_phase)
    im *= scale
    im += s * math.sin(los_phase)
    re *= re
    im *= im
    re += im
    return np.sqrt(re, out=re if isinstance(re, np.ndarray) else None)

"""Gamma moment matching, ergodic capacity and bounds.

The envelope variable (Z or H) is approximated by a Gamma(a, b)
distribution matched to its first two moments.  With gamma = gamma_teff *
Z^2 the SNR CDF is

    F(gamma) = 1 - Q(a, b * sqrt(gamma / gamma_teff))

with Q the regularized upper incomplete gamma function, and the ergodic
capacity is the integrated-by-parts expectation

    EC = (1/ln 2) * integral_0^inf  (1 - F(gamma)) / (1 + gamma)  d gamma.

That integral is evaluated by adaptive quadrature after the compactifying
substitution gamma = (t/(1-t))^2, which maps the half line onto (0, 1) and
makes the integrand vanish at both ends.  The same quantity has a
closed form in terms of a Meijer G-function; the quadrature is the
normative evaluation here and the identity is exercised in tests.

The quadrature is riscap.quadpack, an in-tree port of QUADPACK's QAGP and
QAGS whose results are bit-identical to scipy.integrate.quad's (tests
compare the two), which keeps scipy.integrate and what it imports
(optimize, sparse, linalg) out of every CLI call.  Q is scipy.special's
compiled gammaincc ufunc, loaded by riscap.special without scipy.special's
package __init__.  ``capacity_reports`` evaluates the cases of a whole run
at once: their compact-route integrals run as QUADPACK drivers in
lockstep, with one integrand call per bisection round for all of them,
and a case that route fails is retried alone on the log scale, as a
one-driver lockstep.  Each case's figures equal those of a run on its
own; ``ergodic_capacity`` is the one-case call that takes a ``GammaFit``.

A report takes E[SNR] = gamma_teff * E[Z^2], and so the upper bound, from
the envelope moments, and Var[SNR], the integral and the lower bound from
the Gamma fit.

The "lower bound" is a second-order delta-method approximation of the
Jensen harmonic-mean bound, not a true bound; reports label it
approximate, and orderings against Monte Carlo allow a small slack.

The SNR CDF above enters only through the capacity integral; the
acceptance suite compares it with sampled SNRs directly.  A report never
holds a non-finite figure: an envelope that is identically 0 reports 0,
and a figure the arithmetic cannot represent raises NumericalFailure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadpack, special
from .errors import DegenerateDistribution, NumericalFailure, QuadratureFailure, until_failure
from .moments import MomentSummary

DEGENERATE_EPS = 1e-12
QUAD_ABS_TOL = 1e-8
QUAD_LIMIT = 200


@dataclass(frozen=True)
class GammaFit:
    """Shape/rate pair of the moment-matched envelope distribution."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("Gamma shape and rate must be positive")


@dataclass(frozen=True)
class CapacityReport:
    """Analytic capacity figures for one scenario, bits/s/Hz."""

    ec_approx: float
    ec_upper: float
    ec_lower: float
    snr_mean: float
    snr_variance: float


def gamma_fit(moments: MomentSummary) -> GammaFit:
    """Match Gamma(a, b) to the envelope mean and variance."""
    mean, var = moments.mean, moments.variance
    if var <= DEGENERATE_EPS * mean * mean:
        raise DegenerateDistribution(
            f"variance {var:.3g} too small relative to mean {mean:.3g}; "
            "treat the envelope as deterministic"
        )
    return GammaFit(a=mean * mean / var, b=mean / var)


def _compact_quads(points):
    """integral of Q(a, c*sqrt(gamma)) / (1+gamma) via gamma = (t/(1-t))^2
    for every (a, c) point, by QAGP drivers in lockstep: one (value, abserr,
    neval, ier) per point."""
    a_lane, c_lane = (np.array(column) for column in zip(*points))

    def integrand(t, lanes):
        # nodes of narrow intervals near t = 1 round onto the endpoints,
        # where the integrand is 0: evaluate them at 0.5 and discard that
        inside = (t > 0.0) & (t < 1.0)
        t = np.where(inside, t, 0.5)
        onemt = 1.0 - t
        q = special.gammaincc(a_lane[lanes], c_lane[lanes] * t / onemt)
        return np.where(inside, 2.0 * t * q / (onemt * (onemt * onemt + t * t)), 0.0)

    # The survival function transitions near c*sqrt(gamma) ~ a, i.e.
    # t ~ a/(a+c); seed the subdivision there and at gamma = 1.
    drivers = [
        quadpack.driver(
            0.0, 1.0, (min(max(a / (a + c), 1e-12), 1.0 - 1e-12), 0.5),
            QUAD_ABS_TOL, 0.0, QUAD_LIMIT,
        )
        for a, c in points
    ]
    return quadpack.lockstep(integrand, drivers)


def _survival_integral_logscale(a: float, c: float):
    """Same integral in x = c*sqrt(gamma), then y = ln x, by QAGP with a
    breakpoint at ln c when it falls inside the range, else QAGS:
    (value, abserr, neval, ier).

    The integrand Q(a, e^y) * 2e^{2y}/(c^2 + e^{2y}) is a bounded plateau
    between ln c and ln a with no cancellation near the endpoints, which
    keeps very large gamma_teff (plateaus spanning many decades) well
    conditioned where the compact substitution runs into roundoff.  Each
    retry looks this name up in the module, so a spy set there sees it.
    """

    def integrand(ys, lanes):
        x = np.array([math.exp(y) for y in ys.tolist()])
        return special.gammaincc(a, x) * 2.0 * x * x / (c * c + x * x)

    log_c = math.log(c)
    lo = min(log_c, 0.0) - 45.0
    hi = max(math.log(a + 40.0 * math.sqrt(a) + 50.0), lo + 10.0)
    points = (log_c,) if lo < log_c < hi else None
    drivers = [quadpack.driver(lo, hi, points, QUAD_ABS_TOL, 1e-12, 2 * QUAD_LIMIT)]
    return quadpack.lockstep(integrand, drivers)[0]


def _ier_text(ier: int) -> str:
    return f"QUADPACK ier={ier} ({quadpack.IER_MEANING[ier]})"


def _checked_snr(gamma_teff: float) -> float:
    if gamma_teff <= 0 or not math.isfinite(gamma_teff):
        raise ValueError("effective transmit SNR must be positive and finite")
    return gamma_teff


def _ergodic_capacities(cases):
    """E[log2(1 + SNR)] of each (fit, checked gamma_teff) case, yielded in
    input order.  The compact route of every case runs in lockstep before
    the first value; a case it fails is retried on the log scale when it is
    reached, and a case that fails both raises there."""
    points = [(fit.a, fit.b / math.sqrt(gamma_teff)) for fit, gamma_teff in cases]
    outcomes = _compact_quads(points)
    for (fit, gamma_teff), (a, c), (value, _, _, ier) in zip(cases, points, outcomes):
        if ier != 0:
            # the log-scale route takes ln c and divides by c^2 + x^2
            if c * c == 0.0:
                raise NumericalFailure(
                    f"capacity integral did not converge: compact route {_ier_text(ier)}; no "
                    "log-scale retry, since c = b / sqrt(gamma_teff) squares to 0 at "
                    f"b={fit.b:g}, gamma_teff={gamma_teff:g}"
                )
            value, _, _, retry_ier = _survival_integral_logscale(a, c)
            if retry_ier != 0:
                raise QuadratureFailure(
                    f"capacity integral did not converge: compact route {_ier_text(ier)}; "
                    f"log-scale retry {_ier_text(retry_ier)}"
                )
        yield value / math.log(2.0)


# the vectorized integrands may overflow to inf where Q is already 0
@np.errstate(over="ignore")
def ergodic_capacity(fit: GammaFit, gamma_teff: float) -> float:
    """E[log2(1 + SNR)] by adaptive quadrature on the compactified survival
    integral, absolute tolerance QUAD_ABS_TOL.

    If the compact substitution reports roundoff trouble (it can when the
    capacity runs to many tens of bits), the same integral is retried on a
    log scale before giving up.  This is the one-case call of the batch
    capacity_reports runs.
    """
    return next(_ergodic_capacities([(fit, _checked_snr(gamma_teff))]))


def snr_variance(fit: GammaFit, gamma_teff: float) -> float:
    """Var[SNR] from the Gamma fourth moment.

    The gamma-ratio difference a(a+1)(a+2)(a+3) - (a(a+1))^2 factors as
    a(a+1)(4a+6), which avoids catastrophic cancellation for large shapes.
    The scale gamma_teff / b / b is formed first, so the result does not
    turn to 0/0 where gamma_teff^2 and b^4 both underflow, nor fail where
    b^2 alone leaves float range.
    """
    a = fit.a
    r = gamma_teff / fit.b / fit.b
    return r * r * a * (a + 1.0) * (4.0 * a + 6.0)


def ec_upper_bound(mean_snr: float) -> float:
    """Jensen upper bound log2(1 + E[SNR])."""
    if mean_snr < 0:
        raise ValueError("mean SNR must be >= 0")
    return math.log2(1.0 + mean_snr)


def ec_lower_bound(mean_snr: float, var_snr: float) -> float:
    """Approximate harmonic-mean lower bound (second-order expansion of
    E[1/SNR]); collapses to the upper bound when the variance vanishes.
    E[SNR]^3 is a product, which turns to inf where a float ** raises."""
    if mean_snr <= 0:
        return 0.0
    inv = 1.0 / mean_snr + var_snr / (mean_snr * mean_snr * mean_snr)
    return math.log2(1.0 + 1.0 / inv)


def deterministic_capacity(mean_envelope: float, gamma_teff: float) -> float:
    """Capacity when the envelope has (numerically) no spread."""
    return math.log2(1.0 + gamma_teff * mean_envelope * mean_envelope)


# numpy-scalar moments would warn where a figure leaves float range;
# _finite checks every figure instead
@np.errstate(all="ignore")
def capacity_reports(
    cases: Sequence[tuple[MomentSummary, float]],
) -> list[CapacityReport]:
    """Full analytic report of each (moments, gamma_teff) case, with the
    capacity integrals of all cases run in lockstep; a case too concentrated
    to fit falls back to the deterministic-envelope value (an envelope that
    is identically 0, as under fully outdated CSI, gives 0 throughout).  A
    failure raises what evaluating the cases one by one would raise first."""

    def prepare(case):
        moments, gamma_teff = case
        try:
            return gamma_fit(moments), _checked_snr(gamma_teff)
        except DegenerateDistribution:
            return None, gamma_teff

    prepared, failure = until_failure(prepare, cases)
    ecs = _ergodic_capacities([(fit, g) for fit, g in prepared if fit is not None])
    reports = [
        _report(moments, gamma_teff, fit, ecs)
        for (moments, _), (fit, gamma_teff) in zip(cases, prepared)
    ]
    if failure is not None:
        raise failure
    return reports


def _report(moments, gamma_teff, fit, ecs) -> CapacityReport:
    """One case's report.  E[SNR] = gamma_teff * E[Z^2] comes from the
    envelope moments, and with it the upper bound; the capacity, Var[SNR]
    and the lower bound come from the Gamma fit, taking the capacity from
    ecs, unless fit is None (the degenerate fallback: the deterministic
    capacity, no variance, and a lower bound equal to the upper one)."""
    mean_g = gamma_teff * moments.second_moment
    upper = ec_upper_bound(mean_g)
    if fit is None:
        ec, var_g, lower = deterministic_capacity(moments.mean, gamma_teff), 0.0, upper
    else:
        ec, var_g = next(ecs), snr_variance(fit, gamma_teff)
        lower = ec_lower_bound(mean_g, var_g)
    return _finite(CapacityReport(ec, upper, lower, mean_g, var_g))


def _finite(report: CapacityReport) -> CapacityReport:
    """The report with every figure finite.

    An SNR mean that underflows leaves the lower bound at 0/0; its SNR -> 0
    limit is 0, since it cannot exceed an upper bound of 0.  Any other
    non-finite figure raises NumericalFailure naming it.
    """
    if report.ec_upper == 0.0 and not math.isfinite(report.ec_lower):
        report = dataclasses.replace(report, ec_lower=0.0)
    bad = [
        f"{field.name}={getattr(report, field.name)}"
        for field in dataclasses.fields(report)
        if not math.isfinite(getattr(report, field.name))
    ]
    if bad:
        raise NumericalFailure(f"capacity report figure(s) not finite: {', '.join(bad)}")
    return report

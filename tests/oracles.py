"""Independent oracles used by the test suite.

Everything here recomputes expected values by a route that shares no code
with the library: high-precision mpmath evaluations, brute-force double
loops, and direct sampling.  Keep it that way; these are the other side
of every dual-route check.  The exceptions are per_point_sweep and
per_point_preset, whose point is to run each point alone through the
library's single-run route, as the reference for the batched sweep and
preset routes.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np

from riscap.presets import fig8_distributed_cases, preset
from riscap.workbench import SweepRow, apply_sweep_value, run_scenario

mp.mp.dps = 30


def mp_laguerre_half(x: float) -> float:
    """L_{1/2}(x) through the confluent hypergeometric series M(-1/2,1,x)."""
    return float(mp.hyp1f1(mp.mpf(-1) / 2, 1, mp.mpf(x)))


def mp_rician_mean(k: float) -> float:
    """Envelope mean by direct quadrature of the unit-power Rician pdf."""
    K = mp.mpf(k)

    def integrand(x):
        return (
            x
            * 2
            * x
            * (1 + K)
            * mp.e ** (-K - (1 + K) * x * x)
            * mp.besseli(0, 2 * x * mp.sqrt(K * (1 + K)))
        )

    return float(mp.quad(integrand, [0, mp.inf]))


def mp_j0(x: float) -> float:
    return float(mp.besselj(0, mp.mpf(x)))


def mp_gammainc_upper_regularized(a: float, x: float) -> float:
    return float(mp.gammainc(mp.mpf(a), mp.mpf(x), mp.inf, regularized=True))


def mp_capacity_direct(a: float, b: float, gamma_teff: float) -> float:
    """E[log2(1 + gamma_teff Z^2)], Z ~ Gamma(a, b), by mpmath quadrature."""
    a, b, g = mp.mpf(a), mp.mpf(b), mp.mpf(gamma_teff)

    def integrand(z):
        return mp.log(1 + g * z * z) / mp.log(2) * z ** (a - 1) * mp.e ** (-b * z) * b**a / mp.gamma(a)

    return float(mp.quad(integrand, [0, mp.inf]))


def mp_capacity_meijerg(a: float, b: float, gamma_teff: float) -> float:
    """The closed-form G^{5,1}_{3,5} expression for the same capacity.

    The leading a-parameter (the n = 1 slot) is 0; the remaining two are
    1/2 and 1.  Verified against mp_capacity_direct.
    """
    a, b, g = mp.mpf(a), mp.mpf(b), mp.mpf(gamma_teff)
    half = mp.mpf(1) / 2
    z = b * b / (4 * g)
    G = mp.meijerg([[0], [half, 1]], [[a / 2, (a + 1) / 2, 0, half, 0], []], z)
    return float(2 ** (a - 1) / (mp.sqrt(mp.pi) * mp.gamma(a) * mp.log(2)) * G)


def naive_envelope_moments(
    per_panel, omega0: float, rho0: float, beta0_inv: float
) -> tuple[float, float]:
    """O(M^2) literal translation of the mean/second-moment sums.

    per_panel: list of (beta_inv_list, omega1, omega2, rho).
    """
    mean = math.sqrt(beta0_inv) * rho0 * omega0
    for beta_inv, o1, o2, rho in per_panel:
        for bi in beta_inv:
            mean += rho * math.sqrt(bi) * o1 * o2

    second = beta0_inv * rho0 * rho0
    # per-element powers and within-panel cross terms
    for beta_inv, o1, o2, rho in per_panel:
        m = len(beta_inv)
        for i in range(m):
            second += rho * rho * beta_inv[i]
            for j in range(m):
                if j != i:
                    second += (
                        rho
                        * rho
                        * math.sqrt(beta_inv[i] * beta_inv[j])
                        * (o1 * o2) ** 2
                    )
    # across-panel cross terms
    n_panels = len(per_panel)
    for l in range(n_panels):
        beta_l, o1l, o2l, rho_l = per_panel[l]
        for j in range(n_panels):
            if j == l:
                continue
            beta_j, o1j, o2j, rho_j = per_panel[j]
            for bi in beta_l:
                for bj in beta_j:
                    second += (
                        rho_l
                        * o1l
                        * o2l
                        * math.sqrt(bi)
                        * rho_j
                        * o1j
                        * o2j
                        * math.sqrt(bj)
                    )
    # direct-link mixed term
    for beta_inv, o1, o2, rho in per_panel:
        for bi in beta_inv:
            second += 2.0 * math.sqrt(beta0_inv) * rho0 * omega0 * rho * math.sqrt(bi) * o1 * o2
    return mean, second


def brute_force_element_links(bs, user, panel) -> dict[str, list[float]]:
    """Per-element distances and cosines by a scalar loop over the grid.

    Row-major over (y, x); distances by math.dist, the endpoint-side
    cosines by the law of cosines against the panel center, the elevation
    cosines as height over slant range.  Returns one list per quantity.
    """
    c = (panel.center.x, panel.center.y, panel.center.z)
    b = (bs.x, bs.y, bs.z)
    u = (user.x, user.y, user.z)
    d1 = math.dist(b, c)
    d2 = math.dist(u, c)
    out = {k: [] for k in ("r_t", "r_r", "d_m", "cos_tx", "cos_rx", "cos_t", "cos_r")}
    for j in range(panel.my):
        for i in range(panel.mx):
            e = (
                c[0] + (i - (panel.mx - 1) / 2.0) * panel.dx,
                c[1] + (j - (panel.my - 1) / 2.0) * panel.dy,
                c[2],
            )
            r_t = math.dist(b, e)
            r_r = math.dist(u, e)
            d_m = math.dist(c, e)
            out["r_t"].append(r_t)
            out["r_r"].append(r_r)
            out["d_m"].append(d_m)
            out["cos_tx"].append((d1 * d1 + r_t * r_t - d_m * d_m) / (2.0 * d1 * r_t))
            out["cos_rx"].append((d2 * d2 + r_r * r_r - d_m * d_m) / (2.0 * d2 * r_r))
            out["cos_t"].append((b[2] - c[2]) / r_t)
            out["cos_r"].append((u[2] - c[2]) / r_r)
    return out


def brute_force_beta_inv(bs, user, panel, gt: float, gr: float) -> list[float]:
    """Inverse near-field loss factor of every element, one scalar at a time:
    pattern / (16 pi^2 / (gt gr dx^2 dy^2) * (r_t r_r)^2)."""
    b0_ref = 16.0 * math.pi**2 / (gt * gr * panel.dx**2 * panel.dy**2)
    links = brute_force_element_links(bs, user, panel)
    out = []
    for r_t, r_r, cos_tx, cos_rx, cos_t, cos_r in zip(
        links["r_t"], links["r_r"], links["cos_tx"], links["cos_rx"], links["cos_t"], links["cos_r"]
    ):
        pattern = cos_tx ** (gt / 2.0 - 1.0) * cos_t * cos_r * cos_rx ** (gr / 2.0 - 1.0)
        out.append(pattern / (b0_ref * (r_t * r_r) ** 2))
    return out


def farfield_closed_form_moments(
    m: int,
    beta_ff_inv: float,
    omega1: float,
    omega2: float,
    rho_c: float,
    omega0: float,
    rho0: float,
    beta0_inv: float,
) -> tuple[float, float]:
    """Constant-loss moments written with explicit M and M(M-1) factors."""
    mean = m * rho_c * omega1 * omega2 * math.sqrt(beta_ff_inv) + rho0 * omega0 * math.sqrt(
        beta0_inv
    )
    second = (
        m * rho_c**2 * beta_ff_inv
        + m * (m - 1) * rho_c**2 * (omega1 * omega2) ** 2 * beta_ff_inv
        + 2.0 * m * rho_c * rho0 * omega0 * omega1 * omega2 * math.sqrt(beta0_inv * beta_ff_inv)
        + rho0**2 * beta0_inv
    )
    return mean, second


def sample_gamma_log_capacity(
    a: float, b: float, gamma_teff: float, n: int, seed: int
) -> tuple[float, float]:
    """Sampling estimate (mean, stderr) of E[log2(1 + gamma_teff Z^2)]."""
    rng = np.random.default_rng(seed)
    z = rng.gamma(shape=a, scale=1.0 / b, size=n)
    vals = np.log2(1.0 + gamma_teff * z * z)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def ks_distance(sorted_samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Exact two-sided KS distance given the analytic CDF at each sorted
    sample point."""
    n = sorted_samples.size
    i = np.arange(1, n + 1)
    upper = np.max(np.abs(cdf_values - i / n))
    lower = np.max(np.abs(cdf_values - (i - 1) / n))
    return float(max(upper, lower))


def per_point_sweep(scenario, sweep, workers: int = 1) -> list:
    """Sweep rows with one run_scenario call per point, no shared draws."""
    rows = []
    for value in sweep.values:
        point = apply_sweep_value(scenario, sweep.variable, value)
        want_mc = "mc" in sweep.outputs
        result = run_scenario(
            point,
            trials=sweep.trials if want_mc else None,
            seed=sweep.seed,
            workers=workers,
        )
        rows.append(_row(value, result, sweep.outputs))
    return rows


def _row(value, result, outputs) -> SweepRow:
    report = result.report
    return SweepRow(
        sweep_value=value,
        ec_approx=report.ec_approx if "approx" in outputs else None,
        ec_ub=report.ec_upper if "ub" in outputs else None,
        ec_lb=report.ec_lower if "lb" in outputs else None,
        ec_mc=result.mc.mean_ec if result.mc else None,
        mc_stderr=result.mc.std_error if result.mc else None,
        gamma_teff=result.gamma_teff,
        mode=result.mode_used,
        d_boundary_m=result.d_boundary,
    )


def per_point_preset(name: str, trials: int, seed: int, workers: int = 1) -> list:
    """Preset rows with Monte Carlo, one run_scenario call per point: fig4
    as a near-mode sweep followed by a far-mode sweep, fig8 as its sweep
    followed by one row per distributed case, numbered 1..3."""
    scenario, sweep = preset(name)
    sweep = dataclasses.replace(sweep, trials=trials, seed=seed)
    if name == "fig4":
        rows = []
        for mode in ("near", "far"):
            forced = dataclasses.replace(scenario, mode=mode)
            rows.extend(per_point_sweep(forced, sweep, workers))
        return rows
    rows = per_point_sweep(scenario, sweep, workers)
    if name == "fig8":
        for number, case in enumerate(fig8_distributed_cases(), start=1):
            result = run_scenario(case, trials=trials, seed=seed, workers=workers)
            rows.append(_row(float(number), result, sweep.outputs))
    return rows


def sample_rician(params, rng, los_phase: float = 0.0, size=None):
    """Complex unit-power Rician samples sqrt(K/(1+K)) e^{j los_phase} +
    scatter, the scatter circular complex Gaussian with power 1/(1+K).

    Draws the in-phase normals, then the quadrature ones, so on the same
    generator its modulus is the library's envelope sampler.
    """
    k = params.k
    if math.isinf(k):
        los, scale = 1.0, 0.0
    else:
        los, scale = math.sqrt(k / (1.0 + k)), math.sqrt(1.0 / (2.0 * (1.0 + k)))
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return los * complex(math.cos(los_phase), math.sin(los_phase)) + scale * (re + 1j * im)

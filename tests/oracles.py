"""Independent oracles used by the test suite.

Everything here recomputes expected values by a route that shares no code
with the library: high-precision mpmath evaluations, brute-force double
loops, and direct sampling.  Keep it that way; these are the other side
of every dual-route check.  The exceptions are per_point_sweep and
per_point_preset, whose point is to run each point alone through the
library's single-run route, as the reference for the batched sweep and
preset routes.

The Monte Carlo reference kernel, reference_block_z, shares no code with
src/ either: it reads the library's ensemble and trial records as plain
inputs and redraws each block from its own Philox generator with numpy,
in the library's key, draw order and block partition, so the library's
block kernel can be compared with it block by block.  The sampling
routes the acceptance suite needs (envelope moments, SNR samples) are
built on it.

scipy.integrate.quad is the reference for the library's in-tree QUADPACK
port: quad_compact and quad_logscale run the two survival-integral
routes through it with a scalar integrand, one call per node.  Only the
tests import scipy.integrate.  dqk21_nodes places one interval's
Gauss-Kronrod nodes scalar by scalar, the reference for the node arrays
the port builds a whole round at a time, and dqk21_sums sums a rule in
the Fortran's loops, the reference for the port's straight-line sums.
"""

import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np
from scipy import integrate, special

from riscap.presets import fig8_distributed_cases, preset
from riscap.workbench import apply_sweep_value, run_scenario

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


def saturation_gamma_teff(per_panel, rho0: float, omega0: float, beta0_inv: float) -> float:
    """Large-power limit of gamma_teff, where thermal noise is negligible:
    1 over the outdated-CSI leakage per watt, with each panel's omega2 from
    mp_rician_mean and its sum(beta^-1) re-formed from the amplitudes, not
    read from power_sum.  Infinite when every aging coefficient is 1 (no
    leakage at all)."""
    leak = math.fsum(
        (1.0 - p.rho * p.rho)
        * (1.0 - mp_rician_mean(p.k2) ** 2)
        * math.fsum(p.amplitude * p.amplitude)
        for p in per_panel
    ) + (1.0 - rho0 * rho0) * (1.0 - omega0 * omega0) * beta0_inv
    return math.inf if leak <= 0 else 1.0 / leak


def mp_j0(x: float) -> float:
    return float(mp.besselj(0, mp.mpf(x)))


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


def gamma_snr_mean(a: float, b: float, gamma_teff: float) -> float:
    """E[SNR] = gamma_teff * E[Z^2] for Z ~ Gamma(a, b), from the shape and
    rate: gamma_teff * a (a + 1) / b^2.  The library takes the same figure
    from the envelope's raw second moment, which the fit preserves."""
    return gamma_teff * a * (a + 1.0) / (b * b)


def _quad_result(result) -> tuple[float, float, int, bool]:
    """(value, abserr, neval, failed) of a full_output quad result."""
    return result[0], result[1], result[2]["neval"], len(result) > 3


# QUADPACK dqk21's Kronrod abscissae xgk(1..10), descending (the table of
# the Fortran source)
DQK21_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)


def dqk21_nodes(a: float, b: float) -> list[float]:
    """dqk21's 21 nodes on [a, b], placed one scalar operation at a time as
    the Fortran places them: the centre centr = 0.5*(a+b), then
    centr - hlgth*xgk(j) for j = 1..10, then centr + hlgth*xgk(j), with
    hlgth = 0.5*(b-a)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = [hlgth * x for x in DQK21_XGK]
    return [centr] + [centr - x for x in absc] + [centr + x for x in absc]


# dqk21's Kronrod weights wgk(1..11) (the last at the centre) and the
# 10-point Gauss weights wg(1..5) of Kronrod nodes 2, 4, 6, 8, 10
DQK21_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
DQK21_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def dqk21_sums(fv, hlgth: float) -> tuple[float, float, float, float]:
    """dqk21's (result, abserr, resabs, resasc) from the 21 values fv at
    dqk21_nodes' nodes, summed in the Fortran's loops: the centre, the
    Gauss nodes (j = 2, 4, ..., 10 in Fortran), the other Kronrod nodes,
    then resasc over j = 1..10."""
    fc, fv1, fv2 = fv[0], fv[1:11], fv[11:21]
    resg = 0.0
    resk = DQK21_WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):
        fsum = fv1[j] + fv2[j]
        resg = resg + DQK21_WG[j // 2] * fsum
        resk = resk + DQK21_WGK[j] * fsum
        resabs = resabs + DQK21_WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    for j in (0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        resk = resk + DQK21_WGK[j] * fsum
        resabs = resabs + DQK21_WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = DQK21_WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + DQK21_WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    eps = sys.float_info.epsilon
    if resabs > sys.float_info.min / (50.0 * eps):
        abserr = max((eps * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def quad_compact(a: float, c: float, abs_tol: float, limit: int):
    """The compact-route survival integral of Q(a, c*sqrt(gamma))/(1+gamma)
    (gamma = (t/(1-t))^2, breakpoints at the knee a/(a+c) and at 0.5) by
    scipy.integrate.quad: (value, abserr, neval, failed)."""

    def integrand(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        onemt = 1.0 - t
        q = special.gammaincc(a, c * t / onemt)
        return 2.0 * t * q / (onemt * (onemt * onemt + t * t))

    knee = a / (a + c)
    pts = sorted({min(max(knee, 1e-12), 1.0 - 1e-12), 0.5})
    return _quad_result(
        integrate.quad(integrand, 0.0, 1.0, epsabs=abs_tol, epsrel=0.0, limit=limit,
                       points=pts, full_output=True)
    )


def quad_logscale(a: float, c: float, abs_tol: float, limit: int):
    """The same integral in y = ln(c*sqrt(gamma)) over [lo, hi], with a
    breakpoint at ln c when it lies inside, by scipy.integrate.quad:
    (value, abserr, neval, failed)."""

    def integrand(y: float) -> float:
        x = math.exp(y)
        return special.gammaincc(a, x) * 2.0 * x * x / (c * c + x * x)

    log_c = math.log(c)
    lo = min(log_c, 0.0) - 45.0
    hi = max(math.log(a + 40.0 * math.sqrt(a) + 50.0), lo + 10.0)
    pts = [log_c] if lo < log_c < hi else None
    return _quad_result(
        integrate.quad(integrand, lo, hi, epsabs=abs_tol, epsrel=1e-12, limit=limit,
                       points=pts, full_output=True)
    )


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


def per_point_sweep(scenario, sweep, trials, seed: int, workers: int = 1) -> list:
    """(sweep_value, RunResult) rows with one run_scenario call per point,
    no shared draws; trials None runs no Monte Carlo."""
    rows = []
    for value in sweep.values:
        point = apply_sweep_value(scenario, sweep.variable, value)
        rows.append((value, run_scenario(point, trials=trials, seed=seed, workers=workers)))
    return rows


def per_point_preset(name: str, trials: int, seed: int, workers: int = 1) -> list:
    """Preset rows with Monte Carlo, one run_scenario call per point: fig4
    as a near-mode sweep followed by a far-mode sweep, fig8 as its sweep
    followed by one row per distributed case, numbered 1..3."""
    scenario, sweep = preset(name)
    if name == "fig4":
        rows = []
        for mode in ("near", "far"):
            forced = dataclasses.replace(scenario, mode=mode)
            rows.extend(per_point_sweep(forced, sweep, trials, seed, workers))
        return rows
    rows = per_point_sweep(scenario, sweep, trials, seed, workers)
    if name == "fig8":
        for number, case in enumerate(fig8_distributed_cases(), start=1):
            result = run_scenario(case, trials=trials, seed=seed, workers=workers)
            rows.append((float(number), result))
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


def block_partition(cfg) -> list[tuple[int, int]]:
    """(block_index, trials_in_block) for cfg.trials trials in blocks of
    cfg.block_size, the last block holding the remainder."""
    full, rest = divmod(cfg.trials, cfg.block_size)
    return [(i, cfg.block_size) for i in range(full)] + ([(full, rest)] if rest else [])


def _rician_modulus(k: float, rng, size) -> np.ndarray:
    """|sqrt(K/(1+K)) + (x + jy) / sqrt(2(1+K))| with standard normals x,
    then y, drawn from rng."""
    los, s = (1.0, 0.0) if math.isinf(k) else (math.sqrt(k / (1 + k)), 1 / math.sqrt(2 * (1 + k)))
    x = rng.standard_normal(size)
    y = rng.standard_normal(size)
    return np.sqrt((los + s * x) ** 2 + (s * y) ** 2)


def reference_block_z(ensemble, seed: int, block_index: int, n: int) -> np.ndarray:
    """Envelope sums Z of one block's n trials, drawn from the Philox
    generator keyed (seed, block_index): per panel the BS-side fades then
    the user-side fades, (n, M) each, then the direct link's fade."""
    bits = np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64))
    rng = np.random.Generator(bits)
    z = np.zeros(n)
    for panel in ensemble.panels:
        m = len(panel.amplitude)
        h = _rician_modulus(panel.k1, rng, (n, m))
        g = _rician_modulus(panel.k2, rng, (n, m))
        z += panel.rho * np.sum(h * g * panel.amplitude, axis=1)
    h0 = _rician_modulus(ensemble.k0, rng, n)
    return z + ensemble.rho0 * math.sqrt(ensemble.beta0_inv) * h0


def _map_blocks(fn, ensemble, cfg) -> list:
    """fn(z) for the envelope sums z of each of cfg's blocks, in block
    order.  The blocks are drawn on up to four threads (numpy's draws and
    array arithmetic release the interpreter lock; each thread holds a few
    block x M arrays), so results reduced in this order do not depend on
    the thread count."""

    def block(index_n):
        return fn(reference_block_z(ensemble, cfg.seed, *index_n))

    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        return list(pool.map(block, block_partition(cfg)))


def _blockwise_mean(blocks, n: int) -> tuple[float, float]:
    """Sample mean and its standard error from per-block arrays of n values
    in all: the mean from exact sums of the block sums, the standard error
    in a second pass over the values' deviations from it, so a spread far
    below the mean does not cancel."""
    mean = math.fsum(float(np.sum(b)) for b in blocks) / n
    deviations = np.concatenate(blocks) - mean
    return mean, math.sqrt(math.fsum(deviations * deviations) / (n - 1) / n)


@dataclass(frozen=True)
class EnvelopeMomentEstimate:
    """Sample mean and raw second moment of Z with standard errors."""

    mean: float
    second_moment: float
    se_mean: float
    se_second_moment: float


def simulate_envelope_moments(ensemble, cfg) -> EnvelopeMomentEstimate:
    """Sample moments of the envelope sum Z over cfg's blocks."""

    zs = _map_blocks(lambda z: z, ensemble, cfg)
    mean, se_mean = _blockwise_mean(zs, cfg.trials)
    second, se_second = _blockwise_mean([z * z for z in zs], cfg.trials)
    return EnvelopeMomentEstimate(mean, second, se_mean, se_second)


@dataclass(frozen=True)
class SampledCapacity:
    """Sample-mean capacity, its standard error, and the SNR samples when
    they were kept."""

    mean_ec: float
    std_error: float
    snr_samples: Optional[np.ndarray] = None


def simulate_ec(ensemble, cfg, keep_samples: bool = False) -> SampledCapacity:
    """Sampled E[log2(1 + gamma_teff Z^2)] over cfg's blocks."""

    snrs = _map_blocks(lambda z: ensemble.gamma_teff * z * z, ensemble, cfg)
    mean, stderr = _blockwise_mean([np.log2(1.0 + snr) for snr in snrs], cfg.trials)
    return SampledCapacity(mean, stderr, np.concatenate(snrs) if keep_samples else None)

"""QUADPACK's adaptive Gauss-Kronrod drivers QAGP and QAGS (Piessens et al. 1983).

A port of the Fortran routines dqagpe, dqagse, dqk21, dqpsrt and dqelg
that keeps their floating-point operations in the original order, so the
results (value, error estimate, evaluation count and ier) equal
scipy.integrate.quad's for the same integrand, bounds, tolerances and
breakpoints.

A ``driver`` is a generator that evaluates no integrand itself: it yields
the list of (a, b) intervals it needs ruled (all initial intervals, then
the two halves of each bisection), receives their 21-point Gauss-Kronrod
rules as (result, abserr, resabs, resasc) tuples, and returns (value,
abserr, neval, ier).  ``lockstep`` advances several drivers together,
one per lane: each round it makes one integrand call ``f(nodes, lanes)``
on the 21 nodes of every interval any driver is waiting on, ``lanes[i]``
being the index of the driver that asked for ``nodes[i]``, and f returns
a numpy array of values.  nodes and lanes are numpy arrays built with a
few whole-round operations, which are dqk21's IEEE operations applied
elementwise, so every node is bit-identical to dqk21's.  Each rule is
then summed in scalar Python arithmetic, so a driver's results do not
depend on which drivers run beside it.
``lockstep`` is the only runner: a single integral is a one-driver call.

ier, as in QUADPACK: 0 converged; 1 subdivision limit reached; 2 roundoff
prevents the tolerance; 3 bad integrand behaviour; 4 roundoff in the
extrapolation table; 5 probably divergent.  Invalid input (6) raises
ValueError, as quad does.
"""

from __future__ import annotations

import math
import sys

import numpy as np

EPMACH = sys.float_info.epsilon
UFLOW = sys.float_info.min
OFLOW = sys.float_info.max

IER_MEANING = {
    1: "maximum number of subdivisions reached",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour at some points",
    4: "roundoff error in the extrapolation table",
    5: "integral probably divergent or slowly convergent",
}

# dqk21: Kronrod abscissae (descending, center last) and weights; the
# even-numbered Kronrod nodes (indices 1, 3, ..., 9) carry the 10-point
# Gauss rule with weights WG.
XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the 20 non-central nodes' offsets from the centre per unit half-length:
# -XGK, then +XGK (negation is exact, and IEEE subtraction is the addition
# of the negated operand, so centr + hlgth * -x is dqk21's centr - hlgth * x)
_OFFSETS = np.concatenate((np.negative(XGK), XGK))


_W0, _W1, _W2, _W3, _W4, _W5, _W6, _W7, _W8, _W9, _W10 = WGK
_G1, _G3, _G5, _G7, _G9 = WG  # the Gauss weights of Kronrod nodes 1, 3, 5, 7, 9


def _qk21(fv, hlgth: float):
    """dqk21's sums over the 21 values fv at the nodes lockstep places
    (center, then centr - hlgth * XGK, then centr + hlgth * XGK): (result,
    abserr, resabs, resasc).  Each sum is one left-to-right expression that
    adds its terms in dqk21's order: the Gauss nodes 1, 3, 5, 7, 9, then
    nodes 0, 2, 4, 6, 8 (resasc: nodes 0 to 9)."""
    fc, f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, g0, g1, g2, g3, g4, g5, g6, g7, g8, g9 = fv
    s0, s1, s2, s3, s4, s5, s6, s7, s8, s9 = (
        f0 + g0, f1 + g1, f2 + g2, f3 + g3, f4 + g4, f5 + g5, f6 + g6, f7 + g7, f8 + g8, f9 + g9
    )
    # dqk21 adds these terms to a resg of 0.0, which can change only the
    # sign of a zero, and resg is read only through |resk - resg|
    resg = _G1 * s1 + _G3 * s3 + _G5 * s5 + _G7 * s7 + _G9 * s9
    resk = _W10 * fc
    resabs = (
        abs(resk) + _W1 * (abs(f1) + abs(g1)) + _W3 * (abs(f3) + abs(g3))
        + _W5 * (abs(f5) + abs(g5)) + _W7 * (abs(f7) + abs(g7)) + _W9 * (abs(f9) + abs(g9))
        + _W0 * (abs(f0) + abs(g0)) + _W2 * (abs(f2) + abs(g2)) + _W4 * (abs(f4) + abs(g4))
        + _W6 * (abs(f6) + abs(g6)) + _W8 * (abs(f8) + abs(g8))
    )
    resk = resk + _W1 * s1 + _W3 * s3 + _W5 * s5 + _W7 * s7 + _W9 * s9 + _W0 * s0 + _W2 * s2
    resk = resk + _W4 * s4 + _W6 * s6 + _W8 * s8
    h = resk * 0.5
    resasc = (
        _W10 * abs(fc - h) + _W0 * (abs(f0 - h) + abs(g0 - h)) + _W1 * (abs(f1 - h) + abs(g1 - h))
        + _W2 * (abs(f2 - h) + abs(g2 - h)) + _W3 * (abs(f3 - h) + abs(g3 - h))
        + _W4 * (abs(f4 - h) + abs(g4 - h)) + _W5 * (abs(f5 - h) + abs(g5 - h))
        + _W6 * (abs(f6 - h) + abs(g6 - h)) + _W7 * (abs(f7 - h) + abs(g7 - h))
        + _W8 * (abs(f8 - h) + abs(g8 - h)) + _W9 * (abs(f9 - h) + abs(g9 - h))
    )
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def lockstep(f, drivers):
    """Run the drivers together, one integrand call f(nodes, lanes) per
    round for all of them; returns each driver's (value, abserr, neval,
    ier), in order."""
    results = [None] * len(drivers)
    waiting = [(lane, gen, next(gen)) for lane, gen in enumerate(drivers)]
    while waiting:
        # dqk21's nodes on every interval [a, b] of the round, a row each
        # (centr, then centr - hlgth * XGK, then centr + hlgth * XGK)
        ends = np.array([x for _, _, intervals in waiting for ab in intervals for x in ab])
        a, b = ends[0::2], ends[1::2]
        centr = (0.5 * (a + b))[:, None]
        hlgth = 0.5 * (b - a)
        nodes = np.concatenate((centr, centr + hlgth[:, None] * _OFFSETS), axis=1).ravel()
        lanes = np.repeat([lane for lane, _, intervals in waiting for _ in intervals], 21)
        fv = f(nodes, lanes).tolist()
        hlgths = hlgth.tolist()
        still, k = [], 0
        for lane, gen, intervals in waiting:
            n = len(intervals)
            rules = [_qk21(fv[21 * i : 21 * i + 21], hlgths[i]) for i in range(k, k + n)]
            k += n
            try:
                still.append((lane, gen, gen.send(rules)))
            except StopIteration as done:
                results[lane] = done.value
        waiting = still
    return results


def qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """dqpsrt: after interval maxerr was split into maxerr and last - 1
    (0-based), keep the head of iord (as many entries as the remaining
    bisections can reach) ordered by decreasing error.  Returns the next
    (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
        return iord[nrmax], elist[iord[nrmax]], nrmax
    errmax = elist[maxerr]
    while nrmax > 0:
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
    errmin = elist[last - 1]
    for i in range(nrmax + 1, jupbn - 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            break
        iord[i - 1] = isucc
    else:
        iord[jupbn - 2] = maxerr
        iord[jupbn - 1] = last - 1
        return iord[nrmax], elist[iord[nrmax]], nrmax
    iord[i - 1] = maxerr
    k = jupbn - 2
    for _ in range(i, jupbn - 1):
        isucc = iord[k]
        if errmin < elist[isucc]:
            break
        iord[k + 1] = isucc
        k -= 1
    else:
        k = i - 1
    iord[k + 1] = last - 1
    return iord[nrmax], elist[iord[nrmax]], nrmax


def qelg(n: int, epstab, res3la, nres: int):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[:n] (52 slots).

    Updates epstab and res3la in place; returns (n, nres, result, abserr).
    """
    nres += 1
    abserr = OFLOW
    result = epstab[n - 1]
    if n < 3:
        return n, nres, result, max(abserr, 5.0 * EPMACH * abs(result))
    limexp = 50
    epstab[n + 1] = epstab[n - 1]
    newelm = (n - 1) // 2
    epstab[n - 1] = OFLOW
    num = n
    k1 = n - 1
    for i in range(1, newelm + 1):
        res = epstab[k1 + 2]
        e0 = epstab[k1 - 2]
        e1 = epstab[k1 - 1]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, nres, res, max(err2 + err3, 5.0 * EPMACH * abs(res))
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 1 if num % 2 == 0 else 0
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[:n] = epstab[num - n : num]
    if nres < 4:
        res3la[nres - 1] = result
        abserr = OFLOW
    else:
        abserr = abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
        res3la[:] = [res3la[1], res3la[2], result]
    return n, nres, result, max(abserr, 5.0 * EPMACH * abs(result))


def driver(a: float, b: float, points, epsabs: float, epsrel: float, limit: int):
    """A driver (see the module docstring) of dqagse on a < b (points None)
    or of dqagpe with breakpoints; like quad, dqagpe keeps the distinct
    points strictly inside (a, b).

    The two share this bisection loop.  They differ in when the first rule
    already suffices, in what makes an interval small enough to
    extrapolate over (QAGP: its bisection level; QAGS: its width), in how
    the extrapolation table starts, and in whether an extrapolated error
    equal to the tolerance stops the loop (QAGS only).
    """
    qags = points is None
    pts = () if qags else sorted({float(p) for p in points if a < p < b})
    edges = [float(a), *pts, float(b)]
    nint = len(edges) - 1
    if limit < nint or (epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 5e-29)):
        raise ValueError(
            "invalid QUADPACK input: limit must exceed the number of breakpoints, "
            "and epsabs > 0 or epsrel >= max(50 * machine epsilon, 5e-29)"
        )
    alist, blist = edges[:-1], edges[1:]
    rules = yield list(zip(alist, blist))
    rlist = [rule[0] for rule in rules]
    elist = [rule[1] for rule in rules]
    result = abserr = resabs = 0.0
    for area1, error1, defabs, resasc in rules:
        abserr = abserr + error1
        result = result + area1
        resabs = resabs + defabs
    errsum = 0.0
    for i, (_, error1, _, resasc) in enumerate(rules):
        # an error estimate that is just resasc is raised to the total, to
        # put that interval's bisection first
        if error1 == resasc and error1 != 0.0:
            elist[i] = abserr
        errsum = errsum + elist[i]
    level = [0] * nint
    iord = list(range(nint)) + [0] * (limit - nint)
    for i in range(nint - 1):
        ind1 = iord[i]
        for j in range(i + 1, nint):
            ind2 = iord[j]
            if not elist[ind1] > elist[ind2]:
                ind1, k = ind2, j
        if ind1 != iord[i]:
            iord[k] = iord[i]
            iord[i] = ind1
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * EPMACH * resabs and abserr > errbnd:
        ier = 2
    if limit == nint:
        ier = 1
    if qags:
        done = ier != 0 or (abserr <= errbnd and abserr != rules[0][3]) or abserr == 0.0
    else:
        done = ier != 0 or abserr <= errbnd
    if done:
        return result, abserr, 21 * nint, ier

    rlist2 = [0.0] * 52
    rlist2[0] = result
    res3la = [0.0] * 3
    maxerr = iord[0]
    errmax = elist[maxerr]
    area = result
    nrmax = nres = ktmin = 0
    numrl2 = 2 if qags else 1
    extrap = noext = False
    erlarg = errsum
    ertest = errbnd
    levmax = 1
    small = abs(b - a) * 0.375
    iroff1 = iroff2 = iroff3 = ierro = 0
    correc = 0.0
    abserr = OFLOW
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * resabs else -1

    def small_enough(width, lev):
        return not width > small if qags else not lev + 1 <= levmax

    summed = False
    for last in range(nint + 1, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        levcur = level[maxerr] + 1
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = yield [(a1, b1), (a2, b2)]
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] = levcur
        level.append(levcur)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4
        # interval maxerr keeps the half with the larger error
        halves = [(a1, b1, area1, error1), (a2, b2, area2, error2)]
        if error2 > error1:
            halves.reverse()
        (alist[maxerr], blist[maxerr], rlist[maxerr], elist[maxerr]), added = halves
        for column, value in zip((alist, blist, rlist, elist), added):
            column.append(value)
        maxerr, errmax, nrmax = qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if qags and last == 2:
            erlarg = errsum
            ertest = errbnd
            rlist2[1] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if not small_enough(abs(b1 - a1), levcur):
            erlarg = erlarg + erro12
        if not extrap:
            if not small_enough(abs(blist[maxerr] - alist[maxerr]), level[maxerr]):
                continue
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before
            # extrapolating, bisect the larger intervals first
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            while nrmax < jupbnd:
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if not small_enough(abs(blist[maxerr] - alist[maxerr]), level[maxerr]):
                    break
                nrmax += 1
            if nrmax < jupbnd:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        if numrl2 > 2:
            numrl2, nres, reseps, abseps = qelg(numrl2, rlist2, res3la, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr <= ertest if qags else abserr < ertest:
                    break
            if numrl2 == 1:
                noext = True
            if ier == 5:
                break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small = small * 0.5
        levmax += 1
        erlarg = errsum

    neval = 42 * last - 21 * nint
    check_divergence = not summed
    if not summed:
        summed = abserr == OFLOW
    if not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        else:
            summed = abserr > errsum
            check_divergence = area != 0.0
    if summed:
        result = 0.0
        for r in rlist:
            result = result + r
        abserr = errsum
    elif check_divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01):
        ratio = result / area if area != 0.0 else (math.nan if result == 0.0 else math.inf)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    if ier > 2:
        ier -= 1
    return result, abserr, neval, ier

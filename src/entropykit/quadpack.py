"""Adaptive Gauss–Kronrod quadrature: a port of QUADPACK's QAGS.

QUADPACK (R. Piessens, E. de Doncker-Kapenga, C. W. Überhuber and
D. K. Kahaner, *QUADPACK: A Subroutine Package for Automatic Integration*,
Springer 1983) integrates f over a finite [a, b] with dqagse: the 21-point
Gauss–Kronrod rule dqk21 on each subinterval, bisection of the subinterval
with the largest error estimate (kept in order by dqpsrt), and Wynn's
epsilon algorithm (dqelg) to extrapolate the sequence of sums when the
integrand is singular.

This is a line-for-line port of those four routines.  It keeps their
constants (machine epsilon, the smallest normal and the largest finite
double) and their order of floating-point operations and of integrand
calls, so that `qags` returns the same value, error estimate, error code
and number of subintervals as `scipy.integrate.quad`, which runs the same
routines, to the bit.  The arrays keep QUADPACK's 1-based indices: slot 0 of
each is unused.  Python raises on a float division by zero and on a power
that overflows where Fortran returns an infinity or a NaN; the two places
where that can happen go through `_div` and an explicit cap instead.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)

# dqk21: abscissae of the 21-point Kronrod rule (xgk), its weights (wgk) and
# the weights of the embedded 10-point Gauss rule (wg).  The Gauss nodes are
# the even-numbered Kronrod ones; xgk[11] is the centre.
_XGK = (
    None,
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    None,
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    None,
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# dqk21's two node loops, in its order: the Gauss nodes (jtw = 2j), then the
# Kronrod-only ones (jtwm1 = 2j - 1), each with the weights it accumulates.
_GAUSS_NODES = tuple((2 * j, _XGK[2 * j], _WGK[2 * j], _WG[j]) for j in range(1, 6))
_KRONROD_NODES = tuple((2 * j - 1, _XGK[2 * j - 1], _WGK[2 * j - 1]) for j in range(1, 6))
_RESASC_WEIGHTS = tuple(enumerate(_WGK[1:11], start=1))

LIMEXP = 50  # dqelg: the largest number of elements in the epsilon table

# The text scipy.integrate.quad gives each error code (1 names the limit).
_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
       "If increasing the limit yields no improvement it is advised to "
       "analyze \n  the integrand in order to determine the difficulties.  "
       "If the position of a \n  local difficulty can be determined "
       "(singularity, discontinuity) one will \n  probably gain from "
       "splitting up the interval and calling the integrator \n  on the "
       "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
       "the requested tolerance from being achieved.  "
       "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
       "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
       "in the extrapolation table.  It is assumed that the requested "
       "tolerance\n  cannot be achieved, and that the returned result "
       "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
    6: "The input is invalid.",
}


def message(ier: int, limit: int) -> str:
    """What error code ier of `qags` means, in scipy.integrate.quad's words."""
    return _MESSAGES[ier].format(limit=limit)


def _div(x: float, y: float) -> float:
    """x / y with IEEE semantics where y is zero."""
    if y:
        return x / y
    if x != x or not x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _qk21(f: Callable[[float], float], a: float, b: float):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point Kronrod rule
    on [a, b]; resabs approximates ∫|f| and resasc ∫|f − mean f|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    resg = 0.0
    fc = f(centr)
    resk = _WGK[11] * fc
    resabs = abs(resk)
    for jtw, x, wk, wg in _GAUSS_NODES:
        absc = hlgth * x
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for jtwm1, x, wk in _KRONROD_NODES:
        absc = hlgth * x
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for j, wk in _RESASC_WEIGHTS:
        resasc = resasc + wk * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, q^1.5) without the overflow Python raises for a huge q
        q = 200.0 * abserr / resasc
        abserr = resasc * (q**1.5 if q < 1.0 else 1.0)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord[1..] ordering elist descending, after subinterval
    maxerr was bisected into maxerr and last; returns (maxerr, ermax, nrmax)
    of the subinterval to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # only after a bisection that raised the error estimate does the
        # insertion start above the nrmax-th largest error
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # the number of errors kept in order shrinks as the subdivisions
        # left do
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax top-down, then errmin bottom-up
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n], whose
    last element is the newest partial sum; returns (n, result, abserr,
    nres) with epstab and res3la updated in place."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
    converged = False
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: take e2
            result = res
            abserr = err2 + err3
            converged = True
            break
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        # two elements very close to each other, or an irregular table:
        # drop part of the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1.0e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    if not converged:
        # shift the table
        if n == LIMEXP:
            n = 2 * (LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            ib2 = ib + 2
            epstab[ib] = epstab[ib2]
            ib = ib2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = OFLOW
        else:
            abserr = (
                abs(result - res3la[3])
                + abs(result - res3la[2])
                + abs(result - res3la[1])
            )
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def qags(
    f: Callable[[float], float],
    a: float,
    b: float,
    epsabs: float,
    epsrel: float,
    limit: int,
) -> tuple[float, float, int, int]:
    """dqagse: ∫ₐᵇ f to |error| ≤ max(epsabs, epsrel·|∫ₐᵇ f|) with at most
    limit subintervals.  Returns (result, abserr, ier, last): ier 0 is
    success, 1–5 name the trouble as `message` says, 6 is invalid input;
    last is the number of subintervals used."""
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28)):
        return 0.0, 0.0, 6, 0

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)

    # test on accuracy
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, 1

    # initialization: most integrands return above, so only now are the
    # subinterval lists (1-based, slot 0 unused) built; they grow by one
    # subinterval a bisection
    alist = [0.0, a]
    blist = [0.0, b]
    rlist = [0.0, result]
    elist = [0.0, abserr]
    iord = [0, 1]
    rlist2 = [0.0] * (LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = 0
    iroff2 = 0
    iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0

    # main loop; it always leaves through a break (at the latest when last
    # reaches limit) to the final result (sum_up False) or to the sum of
    # the subinterval results (sum_up True)
    sum_up = False
    last = 1
    while True:
        last += 1
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve previous approximations to integral and error and test
        # for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (
                abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12)
                or erro12 < 0.99 * errmax
            ):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))

        # test for roundoff error and eventually set error flag
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3

        # the number of subintervals equals limit
        if last == limit:
            ier = 1

        # bad integrand behaviour at a point of the integration range
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)

        # keep the error estimates in descending order and pick the
        # subinterval with the nrmax-th largest one to bisect next
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_up = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before
            # bisecting, decrease the sum of the errors over the larger
            # intervals (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-2 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate
    if not sum_up:
        sum_up = abserr == OFLOW
    if not sum_up and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            sum_up = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            sum_up = True
        elif area == 0.0:
            return _finish(result, abserr, ier, last)
    if sum_up:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        return _finish(result, errsum, ier, last)

    # test on divergence
    if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-1):
        ratio = _div(result, area)
        if 0.1e-1 > ratio or ratio > 0.1e3 or errsum > abs(area):
            ier = 6
    return _finish(result, abserr, ier, last)


def _finish(result, abserr, ier, last):
    # the internal codes 3–6 are reported one lower
    if ier > 2:
        ier -= 1
    return result, abserr, ier, last

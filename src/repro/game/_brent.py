"""Brent's scalar root finder and bounded minimiser (Brent 1973).

Line-for-line ports of the two scipy routines the equilibrium analysis
used, so the package needs nothing beyond numpy:

* :func:`brentq` follows scipy's ``brentq.c`` (Brent's method: inverse
  quadratic or secant steps inside a sign-changing bracket, bisection
  when a step is too timid).
* :func:`minimize_bounded` follows ``_minimize_scalar_bounded`` in
  ``scipy/optimize/_optimize.py`` (Brent's parabolic interpolation with
  golden-section steps on a closed interval).

Every comparison, update and tolerance is the reference's, in the same
order, so both return the reference's iterate bit for bit; the scipy
oracle tests in ``tests/unit/test_brent.py`` pin that.  Failures raise
the :mod:`repro.errors` hierarchy instead of ``ValueError`` /
``RuntimeError``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from repro.errors import ConvergenceError, ParameterError

__all__ = ["BRENTQ_RTOL", "brentq", "minimize_bounded"]

#: Smallest relative tolerance ``brentq`` accepts (scipy's default ``4 eps``).
BRENTQ_RTOL = 4 * sys.float_info.epsilon

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _evaluate(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise ConvergenceError(f"the function returned NaN at x={x!r}")
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float,
    rtol: float = BRENTQ_RTOL,
    maxiter: int = 100,
) -> float:
    """A root of ``f`` in the bracket ``[a, b]``, where ``f(a) f(b) < 0``.

    Stops when the bracket around the root is narrower than
    ``xtol + rtol |x|``; every iterate stays inside ``[a, b]``.

    Raises
    ------
    ParameterError
        If the tolerances are out of range or ``f(a)`` and ``f(b)`` share
        a sign.
    ConvergenceError
        If ``f`` returns NaN or ``maxiter`` iterations do not converge.
    """
    if xtol <= 0:
        raise ParameterError(f"xtol must be positive, got {xtol!r}")
    if rtol < BRENTQ_RTOL:
        raise ParameterError(f"rtol must be >= {BRENTQ_RTOL!r}, got {rtol!r}")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _evaluate(f, xpre)
    fcur = _evaluate(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ParameterError(
            f"f(a) and f(b) must have different signs, got f({xpre!r})="
            f"{fpre!r} and f({xcur!r})={fcur!r}"
        )
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _evaluate(f, xcur)
    raise ConvergenceError(
        f"brentq did not converge after {maxiter} iterations; last x={xcur!r}"
    )


def minimize_bounded(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    *,
    xatol: float,
    maxiter: int = 500,
) -> float:
    """The minimiser of a unimodal ``f`` on ``[lower, upper]``.

    Stops when both ends of the bracket are within
    ``2 (sqrt(eps) |x| + xatol / 3)`` of the best point ``x``.

    Raises
    ------
    ParameterError
        If the bounds are not finite or ``lower > upper``.
    ConvergenceError
        If ``f`` returns NaN or ``maxiter`` evaluations do not converge.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ParameterError("optimisation bounds must be finite scalars")
    if lower > upper:
        raise ParameterError(
            f"lower bound {lower!r} exceeds upper bound {upper!r}"
        )
    a, b = lower, upper
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = _evaluate(f, x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (
                p < q * (b - xf)
            ):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = _GOLDEN_MEAN * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = _evaluate(f, x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            raise ConvergenceError(
                f"bounded minimisation used its {maxiter} evaluations; "
                f"last x={xf!r}"
            )
    return xf

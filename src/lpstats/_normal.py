"""The standard normal CDF and quantile, ported from Cephes to numpy.

`ndtr` and `ndtri` follow the Cephes routines that scipy.special wraps,
coefficient for coefficient and operation for operation, so with the
same exp and log they give scipy's bits. numpy's own exp and log may
round the last bit differently, which moves a result by a few ulps at
most. Each branch is evaluated only on the elements it serves.
"""

from __future__ import annotations

import numpy as np

_SQRT1_2 = 0.707106781186547524400844362104849039
_SQRT2PI = 2.50662827463100050242e0
# erfc is taken as 0 from here up: the least double whose square exceeds
# Cephes' MAXLOG, 7.09782712893383996843e2
_ZMAX = 26.64174755704633
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# erf(z) = z T(z^2) / U(z^2) for |z| < 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
# erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8, and R / S from 8 up
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)

# ndtri, central levels exp(-2) < y < 1 - exp(-2), in t = y - 0.5
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri tails in z = 1/x, x = sqrt(-2 log y): P1 / Q1 for x < 8, P2 / Q2 above
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(t, coefs):
    """Horner's rule from the leading coefficient, as Cephes' polevl."""
    acc = t * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= t
        acc += c
    return acc


def _p1evl(t, coefs, out=None):
    """The same with a leading coefficient 1 left out, as Cephes' p1evl.

    `out`, when given, must not be `t`.
    """
    acc = np.add(t, coefs[0], out=out)
    for c in coefs[1:]:
        acc *= t
        acc += c
    return acc


def ndtr(a):
    """Phi(a), the standard normal CDF, of a float array; NaN gives NaN.

    For |a| < sqrt(2) it is 0.5 + 0.5 erf(a / sqrt(2)); beyond, 0.5
    erfc(|a| / sqrt(2)) or 1 minus that. (Cephes takes 1 - erf for erfc
    below 1 and switches to erf at sqrt(1/2), which gives the same bits.)
    """
    y = np.multiply(a, _SQRT1_2)
    np.abs(y, out=y)  # |x| for x = a / sqrt(2), until each branch fills y
    inner = y < 1.0
    w = a[inner]
    w *= _SQRT1_2
    w2 = w * w
    acc = _polevl(w2, _T)
    w *= acc
    w /= _p1evl(w2, _U, out=acc)
    w *= 0.5
    w += 0.5
    y[inner] = w
    outer = ~inner  # NaN goes here, and stays NaN
    if outer.any():
        z = y[outer]
        e = np.minimum(z, _ZMAX)  # no square overflows
        e *= e
        np.negative(e, out=e)
        np.exp(e, out=e)
        mid = z < 8.0
        t = z[mid]
        e[mid] = e[mid] * _polevl(t, _P) / _p1evl(t, _Q)
        far = (z >= 8.0) & (z < _ZMAX)
        t = z[far]
        e[far] = e[far] * _polevl(t, _R) / _p1evl(t, _S)
        e[z >= _ZMAX] = 0.0
        e *= 0.5
        np.subtract(1.0, e, out=e, where=a[outer] > 0.0)
        y[outer] = e
    return y


def ndtri(y0):
    """The standard normal quantile of a float array of levels.

    Levels 0 and 1 give -inf and inf; a level outside [0, 1], or NaN,
    gives NaN.
    """
    x = np.full_like(y0, np.nan)
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_M2
    central = y0 > _EXP_M2
    central &= ~upper
    t = y0[central]
    t -= 0.5
    t2 = t * t
    r = _polevl(t2, _P0)
    r *= t2
    r /= _p1evl(t2, _Q0)
    r *= t
    r += t
    r *= _SQRT2PI
    x[central] = r
    tail = (y0 > 0.0) & (y0 < 1.0)
    tail &= ~central
    if tail.any():
        y = y0[tail]
        up = upper[tail]
        np.subtract(1.0, y, out=y, where=up)
        s = np.log(y)  # then s = sqrt(-2 log y), 2 up to 38.6
        s *= -2.0
        np.sqrt(s, out=s)
        r = s - np.log(s) / s
        z = np.divide(1.0, s, out=y)
        near = s < 8.0
        t = z[near]
        r[near] -= t * _polevl(t, _P1) / _p1evl(t, _Q1)
        t = z[~near]
        r[~near] -= t * _polevl(t, _P2) / _p1evl(t, _Q2)
        np.negative(r, out=r, where=~up)
        x[tail] = r
    return x

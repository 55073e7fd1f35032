"""Hot-loop kernels of the Monte Carlo estimators, in numpy.

Both kernels work one margin (a column of the log-coordinate block) at
a time, accumulating into a fixed set of length-m buffers with in-place
ufuncs.  That avoids fancy-index copies of the other margins and
reductions over a short inner axis, which dominate a row-wise
formulation.
"""

import math

import numpy as np
from scipy.special import erfc

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def crude_chunk(y, u, lam, bg) -> int:
    """Number of draws (rows of the log-coordinates ``y``) whose risk sum
    sum_j lam_j * exp(bg_j * y_j) exceeds u."""
    xk = np.empty(len(y))
    sm = np.zeros(len(y))
    for k in range(y.shape[1]):
        np.multiply(y[:, k], bg[k], out=xk)
        np.exp(xk, out=xk)
        xk *= lam[k]
        sm += xk
    return int(np.count_nonzero(sm > u))


def conditional_chunk(y, shifted, out, u, lam, bg, others, alpha, cond_sd,
                      shift, tilt_vec, tilt_const, mix):
    """Per-draw integrand of the conditional largest-claim estimator.

    For each draw (row of the correlated standard-normal matrix ``y``)
    accumulates, over margins j, the importance weight times the
    conditional probability that margin j exceeds both the remaining gap
    to u and the largest other margin.  For margin j the other margins
    are shifted by ``shift[j]`` on the rows ``shifted[j]`` (a slice: the
    shifted defensive-mixture component, with weight ``mix``, the share
    of the rows) and nominal on the rest.  Writes the sums into ``out``.

    The weight of a draw is 1 / (mix * e^q + 1 - mix), with q the log
    likelihood ratio of the shifted component; an overflowing e^q gives
    weight 0, the limit of the exact value.  The weight is exactly 1 at a
    zero shift, where q = 0.
    """
    m, d = y.shape
    yt = y.T
    yk = np.empty(m)        # other margin k, plus the shift on ``rows``
    xk = np.empty(m)        # lam_k * exp(bg_k * yk)
    sm = np.empty(m)        # sum of the other margins, then z
    mx = np.empty(m)        # max of the other margins
    mu = np.empty(m)        # conditional mean of log-margin j
    tmp = np.empty(m)
    q = np.empty(m)         # log likelihood ratio, then the mixture density
    out[:] = 0.0
    for j in range(d):
        rows = shifted[j]
        for idx, k in enumerate(others[j]):
            first = idx == 0
            yk[:] = yt[k]
            yk[rows] += shift[j, idx]
            if first:
                np.multiply(yk, tilt_vec[j, idx], out=q)
            else:
                np.multiply(yk, tilt_vec[j, idx], out=tmp)
                q += tmp
            np.multiply(yk, bg[k], out=xk)
            np.exp(xk, out=xk)
            xk *= lam[k]
            if first:
                sm[:] = xk
                mx[:] = xk
                np.multiply(yk, alpha[j, idx], out=mu)
            else:
                sm += xk
                np.maximum(mx, xk, out=mx)
                np.multiply(yk, alpha[j, idx], out=tmp)
                mu += tmp
        # z = (log(max(M_j, u - S_j) / lam_j) / bg_j - mu) / cond_sd_j
        np.subtract(u, sm, out=sm)
        np.maximum(sm, mx, out=sm)
        sm /= lam[j]
        np.log(sm, out=sm)
        sm /= bg[j]
        sm -= mu
        sm *= _INV_SQRT2 / cond_sd[j]
        erfc(sm, out=sm)
        sm *= 0.5
        q -= tilt_const[j]
        with np.errstate(over="ignore"):
            np.exp(q, out=q)
        q *= mix
        q += 1.0 - mix
        sm /= q
        out += sm

"""Hot-loop kernels of the Monte Carlo estimators, in numpy.

Both kernels work one margin (a column of the log-coordinates, or one
other margin of a conditional term) at a time, accumulating into a
fixed set of buffers with in-place ufuncs.  That avoids
fancy-index copies of the other margins and reductions over a short
inner axis, which dominate a row-wise formulation.

Both take _PASS = 2^14 draws (rows of ``crude_chunk``'s y, columns of
``conditional_chunk``'s e) per pass, so their buffers are one pass wide
whatever the block size.  Buffers as long as the block, on top of the
sampler's block of draws, push a block's heap use past the level at
which glibc's malloc hands memory back to the system, and every block
then page-faults it in again (see ``model._draw_chunk``, whose product
takes the same number of columns per pass).  At d = 5 one conditional
pass also fits in a 2 MB L2 cache, where a 65,536-draw block does not.
"""

import math

import numpy as np
from scipy.special import erfc

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Draws per pass of both kernels.
_PASS = 1 << 14


def crude_chunk(y, u, lam, bg) -> int:
    """Number of draws (rows of the log-coordinates ``y``) whose risk sum
    sum_j lam_j * exp(bg_j * y_j) exceeds u, taken _PASS rows at a
    time."""
    xk = np.empty(min(len(y), _PASS))
    sm = np.empty_like(xk)
    hits = 0
    for start in range(0, len(y), _PASS):
        rows = y[start:start + _PASS]
        x, s = xk[:len(rows)], sm[:len(rows)]
        s[:] = 0.0
        for k in range(y.shape[1]):
            np.multiply(rows[:, k], bg[k], out=x)
            np.exp(x, out=x)
            x *= lam[k]
            s += x
        hits += int(np.count_nonzero(s > u))
    return hits


def conditional_chunk(e, shifted, out, u, lam, bg, others, factor, alpha,
                      cond_sd, shift, tilt_vec, tilt_const, mix):
    """Per-draw integrand of the conditional largest-claim estimator.

    Each draw is a column of the (d, m) independent standard normals
    ``e``.  Margin j conditions on the other margins y_-j = L_j e_-j,
    with L_j = chol(Sigma_-j) and e_-j the rows ``others[j]`` of e:
    ``factor[j]`` is L_j with its columns moved to ``others[j]`` (zero in
    column j), so y_-j = factor[j] @ e.  For each draw the kernel
    accumulates, over margins j, the importance weight times the
    conditional probability that margin j exceeds both the remaining gap
    to u and the largest other margin.  For margin j the other margins
    are shifted by ``shift[j]`` on the rows ``shifted[j]`` (a slice: the
    shifted defensive-mixture component, with weight ``mix``, the share
    of the rows) and nominal on the rest.  Writes the sums into ``out``.

    The draws are taken _PASS = 2^14 columns of e at a time (see the
    module docstring): the seven scratch buffers are one pass wide, and
    each pass clips the slices ``shifted[j]`` to its own columns.  The
    integrand of a draw does not depend on the pass it falls in.

    Row idx of L_j is zero past column idx, so in ``factor[j]`` it is zero
    past column k = ``others[j][idx]``: the other margin k is the product
    of its first k + 1 entries with the first k + 1 rows of e, and for
    idx = 0 the single entry times row k.

    The weight of a draw is 1 / (mix * e^q + 1 - mix), with q the log
    likelihood ratio of the shifted component; an overflowing e^q gives
    weight 0, the limit of the exact value.  The weight is exactly 1 at a
    zero shift, where q = 0.
    """
    d, m = e.shape
    bounds = [rows.indices(m)[:2] for rows in shifted]
    scratch = np.empty((7, min(m, _PASS)))
    for c0 in range(0, m, _PASS):
        c1 = min(c0 + _PASS, m)
        ew = e[:, c0:c1]
        ow = out[c0:c1]
        # yk: other margin k, plus the shift on ``rows``; xk: lam_k *
        # exp(bg_k * yk); sm: sum of the other margins, then z; mx: their
        # max; mu: conditional mean of log-margin j; q: log likelihood
        # ratio, then the mixture density
        yk, xk, sm, mx, mu, tmp, q = scratch[:, :c1 - c0]
        ow[:] = 0.0
        for j in range(d):
            lo, hi = bounds[j]
            rows = slice(max(lo - c0, 0), max(hi - c0, 0))
            for idx, k in enumerate(others[j]):
                first = idx == 0
                if first:
                    np.multiply(ew[k], factor[j, 0, k], out=yk)
                else:
                    np.matmul(factor[j, idx, :k + 1], ew[:k + 1], out=yk)
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
            ow += sm

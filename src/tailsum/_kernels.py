"""Hot-loop kernels of the Monte Carlo estimators, in numpy.

``crude_chunk`` works one column of the log-coordinates at a time, and
``conditional_chunk`` one margin at a time, each into a fixed set of
buffers with in-place ufuncs.  That avoids fancy-index copies of the
other margins and reductions over a short inner axis, which dominate a
row-wise formulation.  For margin j the conditional kernel forms every
linear quantity of the draws (the other margins' exponents, the
conditional mean and the log likelihood ratio) in one BLAS product of a
(d + 1, d) coefficient matrix with the normals, and the matrices, with
every per-margin constant folded in, are built once per estimate by
``conditional_coefficients``.  What is left per value is one exp per
other margin, one log, one erfc, and one exp or cosh and one divide
of the weight; the erfc is about half the kernel's time at d = 5.  The
conditional kernel owns the defensive mixture's one shape: from a bit
per margin it picks the shifted half of the block, and it weights the
two halves by the power heuristic (Veach & Guibas 1995, exponent 2).

Both take _PASS = 2^14 draws (rows of ``crude_chunk``'s y, columns of
``conditional_chunk``'s e) per pass, so their buffers are one pass wide
whatever the block size.  Buffers as long as the block, on top of the
sampler's block of draws, push a block's heap use past the level at
which glibc's malloc hands memory back to the system, and every block
then page-faults it in again (see ``model._draw_chunk``, whose product
reads _PASS for its columns per pass).  At d = 5 one conditional
pass also fits in a 2 MB L2 cache, where a 65,536-draw block does not.
"""

import math

import numpy as np
from scipy.special import erfc

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Draws per pass of both kernels, and columns per product of the sampler.
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


def conditional_chunk(e, bits, out, coef, offset, lam_ratio, u_ratio,
                      z_scale, log_tilt):
    """Per-draw integrand of the conditional largest-claim estimator.

    Each draw is a column of the (d, m) independent standard normals
    ``e``.  For each draw the kernel sums, over margins j, the importance
    weight times the conditional probability that margin j exceeds both
    the remaining gap to u and the largest other margin, and writes the
    sums into ``out``.  Margin j's other margins are shifted (the
    defensive mixture's shifted component) on the first (m + 1) // 2
    columns where ``bits[j]`` is 0, on the rest where it is 1, and
    nominal on the other half; a one-column block is its first half.
    Each half of the first 2^b Sobol points is a net (the second is the
    first XOR one direction number), so under the block's digital shift
    every column is uniform.  The remaining arguments come from
    ``conditional_coefficients``.

    The draws are taken _PASS = 2^14 columns of e at a time (see the
    module docstring), and each pass clips the halves to its own
    columns; the integrand of a draw does not depend on the pass it
    falls in.  Per pass and margin j, one product coef[j] @ e fills
    the d + 1 rows bg_k y_k (k the other margins), bg_j mu_j (mu_j the
    conditional mean of log-margin j) and q (the log likelihood ratio),
    and one add puts offset[j] on the shifted columns.  Then, with
    x_k = lam_k e^(bg_k y_k) and every x scaled by 1 / lam_j,

        z = (log(max(u - S_j, M_j) / lam_j) - bg_j mu_j) / (bg_j sd_j),

    with S_j and M_j the sum and maximum of the x_k.  The term is the
    conditional probability erfc(z / sqrt(2)) / 2 times the mixture
    weight, which with r = e^(q + log_tilt_j), the likelihood ratio of
    the shifted law to the nominal one, is the power heuristic's

        2 / (1 + r^2)    on the nominal columns (at most 2),
        2r / (1 + r^2)   on the shifted ones (at most 1):

    its shares 1 / (1 + r^2) and r^2 / (1 + r^2) sum to 1 at every
    point, so the estimator stays unbiased, and the nominal law bounds
    the harm of a misplaced shift.  The term is erfc / (1 + e^(2 log r))
    on the nominal columns and erfc / (2 cosh(log r)) = erfc / (r + 1/r)
    on the shifted ones, with the denominators formed in place in the
    row of q.  Past the float range each weight takes its limit, never
    nan: 0 on the nominal half once r^2 overflows, 0 on the shifted half
    once r or 1/r does, and 2 on the nominal half once r underflows.  At
    a zero shift r = 1 and both weights are exactly 1.
    """
    d, m = e.shape
    mid = (m + 1) // 2
    bounds = [(mid, m) if bit else (0, mid) for bit in bits.tolist()]
    scratch = np.empty((d + 2, min(m, _PASS)))
    for c0 in range(0, m, _PASS):
        c1 = min(c0 + _PASS, m)
        ew = e[:, c0:c1]
        ow = out[c0:c1]
        # prod: the product (x_k, then bg_j mu_j, then q); t: the scaled
        # threshold, then the erfc argument and the term
        buf = scratch[:, :c1 - c0]
        prod, t = buf[:d + 1], buf[d + 1]
        x, mu, q = prod[:d - 1], prod[d - 1], prod[d]
        ow[:] = 0.0
        for j in range(d):
            lo, hi = bounds[j]
            np.matmul(coef[j], ew, out=prod)
            # the shifted slice [a, b) of this pass; the rest is nominal
            a, b = max(lo - c0, 0), max(hi - c0, 0)
            prod[:, a:b] += offset[j][:, None]
            np.exp(x, out=x)
            x *= lam_ratio[j][:, None]
            np.sum(x, axis=0, out=t)
            np.subtract(u_ratio[j], t, out=t)
            for xk in x:
                np.maximum(t, xk, out=t)
            np.log(t, out=t)
            t -= mu
            t *= z_scale[j]
            erfc(t, out=t)
            # q becomes log r, then the weight's denominator: r + 1/r =
            # 2 cosh(log r) on the shifted slice, 1 + r^2 = 1 + e^(2 log r)
            # on the nominal rest
            q += log_tilt[j]
            with np.errstate(over="ignore"):
                for part, shifted in ((q[:a], False), (q[a:b], True),
                                      (q[b:], False)):
                    if not len(part):
                        continue
                    if shifted:
                        np.cosh(part, out=part)
                        part += part
                    else:
                        part += part
                        np.exp(part, out=part)
                        part += 1.0
            t /= q
            ow += t


def conditional_coefficients(u, lam, bg, others, factor, alpha, cond_sd, shift,
                             tilt_vec, tilt_const):
    """``conditional_chunk``'s arguments after ``out``, folded from the
    per-margin constants of the conditional law.

    ``others[j]`` are the indices of the margins other than j;
    ``factor[j]`` is L_j = chol(Sigma_-j) with its columns moved to
    ``others[j]`` (zero in column j), so margin j's conditioning vector is
    y_-j = factor[j] @ e.  ``alpha[j]`` and ``cond_sd[j]`` are the
    coefficients and the standard deviation of log-margin j given y_-j,
    ``shift[j]`` the mean shift of the mixture's shifted component,
    ``tilt_vec[j]`` = Sigma_-j^-1 shift_j and ``tilt_const[j]`` =
    shift_j' tilt_vec[j] / 2.
    Returns (coef, offset, lam_ratio, u_ratio, z_scale, log_tilt):

    * coef (d, d + 1, d): rows 0..d-2 of coef[j] are bg_k times the rows
      of factor[j] (k = others[j]), row d-1 is bg_j alpha_j' factor[j]
      and row d is tilt_vec[j]' factor[j], so coef[j] @ e holds
      bg_k y_k, bg_j times the conditional mean and the log likelihood
      ratio q;
    * offset (d, d + 1): the same rows applied to shift_j, added on the
      shifted columns only;
    * lam_ratio (d, d - 1) = lam_k / lam_j and u_ratio (d,) = u / lam_j;
    * z_scale (d,) = 1 / (bg_j cond_sd_j sqrt(2)), the erfc argument's
      scale;
    * log_tilt (d,) = -tilt_const_j, so r = e^(q + log_tilt) is the
      likelihood ratio in the power-heuristic weights, and the weight
      times erfc / 2 is erfc / (1 + r^2) on the nominal half and
      erfc / (r + 1/r) on the shifted one.
    """
    d = len(lam)
    coef = np.empty((d, d + 1, d))
    coef[:, :d - 1] = bg[others][:, :, None] * factor
    coef[:, d - 1] = bg[:, None] * np.einsum("ja,jab->jb", alpha, factor)
    coef[:, d] = np.einsum("ja,jab->jb", tilt_vec, factor)
    offset = np.empty((d, d + 1))
    offset[:, :d - 1] = bg[others] * shift
    offset[:, d - 1] = bg * np.einsum("ja,ja->j", alpha, shift)
    offset[:, d] = np.einsum("ja,ja->j", tilt_vec, shift)
    return (coef, offset, lam[others] / lam[:, None], u / lam,
            _INV_SQRT2 / (bg * cond_sd), -tilt_const)

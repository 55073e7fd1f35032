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
per margin it picks the shifted run of the margin's share of the block
(set by ``shifted_share``), and it weights the two runs by the power
heuristic (Veach & Guibas 1995, exponent 2).

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
# Draws per pass of both kernels, columns per product of the sampler and
# points per gather of the lattice inverse normal.
_PASS = 1 << 14
# The shifted component's share for a margin whose shift is far, and the
# tilt constant and gain from which a shift is far (see shifted_share).
_FAR_SHARE = 0.875
_FAR_TILT = 2.0
_FAR_GAIN = 2.0


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


def shifted_share(d: int, tilt_const: float, gain: float) -> float:
    """The defensive mixture's shifted share s for a margin at dimension
    d: 7/8 at d >= 3 when the margin's shift is far, else 1/2.

    The shift is far when both ``tilt_const``, half the squared
    Mahalanobis length of the shift (the Kullback-Leibler divergence of
    the shifted law from the nominal one), and ``gain``, the log of the
    integrand at the shift over its value at the origin, are at least 2.
    Only then do the two laws barely overlap and the integrand's mass
    near the origin, which the nominal law covers, count for little, so
    that a nominal half buys back almost no variance (Hesterberg 1995;
    Owen & Zhou 2000); the nominal law then keeps one eighth, which still
    bounds every weight by 1 / (1 - s) = 8.  A zero shift makes the two
    laws one, and halves weigh every draw exactly 1; nearer shifts (bulk
    thresholds, or a second region of the integrand at the origin) lose
    variance at 7/8.  d = 2 keeps halves.
    """
    if d >= 3 and tilt_const >= _FAR_TILT and gain >= _FAR_GAIN:
        return _FAR_SHARE
    return 0.5


def conditional_chunk(e, bits, out, coef, offset, lam_ratio, u_ratio,
                      z_scale, log_tilt, share, start=0, block=None):
    """Per-draw integrand of the conditional largest-claim estimator.

    Each draw is a column of the (d, m) independent standard normals
    ``e``: the points ``start`` to ``start`` + m - 1 of a block of
    ``block`` points (by default the whole block, start 0 and block m).
    For each draw the kernel sums, over margins j, the importance
    weight times the conditional probability that margin j exceeds both
    the remaining gap to u and the largest other margin, and writes the
    sums into ``out``.  With s = ``share[j]`` (1/2 on blocks under 8
    points), margin j's other margins are shifted (the defensive
    mixture's shifted component) on the first ceil(s M) points of the
    block of M where ``bits[j]`` is 0, on the last floor(s M) where it is
    1, and nominal on the rest: at s = 7/8 the first or last 7M/8, at
    s = 1/2 a half (a one-point block is its first half).  Blocks are
    powers of two, and the first 2^b Sobol points in runs of 2^(b-3) are
    nets (each is the first run XOR some of three direction numbers), so
    either run is a union of nets, and under the block's digital shift
    every point is uniform.  The remaining arguments come from
    ``conditional_coefficients``.

    The draws are taken _PASS = 2^14 columns of e at a time (see the
    module docstring), and each pass clips the runs to its own columns,
    as each chunk of a block clips them to its own points; the integrand
    of a draw does not depend on the pass or chunk it falls in.
    Per pass and margin j, one product coef[j] @ e fills the d + 1 rows
    bg_k y_k (k the other margins), bg_j mu_j (mu_j the conditional mean
    of log-margin j) and q (the log likelihood ratio), and one add puts
    offset[j] on the shifted columns.  Then, with x_k = lam_k e^(bg_k y_k)
    and every x scaled by 1 / lam_j,

        z = (log(max(u - S_j, M_j) / lam_j) - bg_j mu_j) / (bg_j sd_j),

    with S_j and M_j the sum and maximum of the x_k.  The term is the
    conditional probability erfc(z / sqrt(2)) / 2 times the mixture
    weight.  With r = e^(q + log_tilt_j), the likelihood ratio of the
    shifted law to the nominal one, a0 = 1 - s and L = log r + log(s/a0),
    that weight is the power heuristic's

        1 / (a0 (1 + e^(2L)))       on the nominal columns (at most 1/a0),
        1 / (2 a0 cosh L)           on the shifted ones (at most 1/(2 a0)):

    its shares 1 / (1 + e^(2L)) and e^(2L) / (1 + e^(2L)) sum to 1 at
    every point, and each is divided by its component's share of the
    columns times its density relative to the nominal law (a0 and s r),
    so the estimator stays unbiased, and the nominal law bounds the harm
    of a misplaced shift.  The term is erfc / (2 a0 (1 + e^(2L))) on the
    nominal columns and erfc / (4 a0 cosh L) on the shifted ones, with
    the denominators formed in place in the row of q; 2 a0 is a power of
    two (1 at s = 1/2, 1/4 at s = 7/8), so it scales them exactly, and at
    s = 1/2 log(s/a0) is 0 and the terms are the equal halves' own.  Past
    the float range each weight takes its limit, never nan: 0 on the
    nominal columns once e^(2L) overflows, 0 on the shifted ones once
    cosh L does, and 1/a0 on the nominal columns once e^(2L) underflows.
    At s = 1/2 and a zero shift L = 0 and both weights are exactly 1.
    """
    d, m = e.shape
    size = m if block is None else block
    # per margin: the shifted run [lo, hi) of the block for its bit,
    # log(s / a0), and the exact power of two 2 a0 that scales the
    # weights' denominators
    bounds, log_ratio, two_a0 = [], [], []
    for bit, s in zip(bits.tolist(), share.tolist()):
        s = s if size >= 8 else 0.5
        bounds.append((size - math.floor(s * size), size) if bit
                      else (0, math.ceil(s * size)))
        log_ratio.append(math.log(s / (1.0 - s)))
        two_a0.append(2.0 * (1.0 - s))
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
            a, b = max(lo - start - c0, 0), max(hi - start - c0, 0)
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
            # q becomes L, then the weight's denominator: 4 a0 cosh L on
            # the shifted slice, 2 a0 (1 + e^(2L)) on the nominal rest
            q += log_tilt[j] + log_ratio[j]
            with np.errstate(over="ignore"):
                for part, shifted in ((q[:a], False), (q[a:b], True),
                                      (q[b:], False)):
                    if not len(part):
                        continue
                    if shifted:
                        np.cosh(part, out=part)
                        part *= 2.0 * two_a0[j]
                    else:
                        part += part
                        np.exp(part, out=part)
                        part += 1.0
                        if two_a0[j] != 1.0:
                            part *= two_a0[j]
            t /= q
            ow += t


def conditional_coefficients(u, lam, bg, others, factor, alpha, cond_sd, shift,
                             tilt_vec, tilt_const, gain):
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
      likelihood ratio in the power-heuristic weights;
    * share (d,): margin j's shifted share s_j, ``shifted_share`` of d,
      tilt_const_j and ``gain[j]`` (the log-integrand's gain at shift_j
      over the origin).  The kernel adds log(s_j / (1 - s_j)) to log_tilt
      to form L and scales the weights' denominators by 2 (1 - s_j).
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
    share = np.array([shifted_share(d, c, g) for c, g in zip(tilt_const, gain)])
    return (coef, offset, lam[others] / lam[:, None], u / lam,
            _INV_SQRT2 / (bg * cond_sd), -tilt_const, share)

"""Estimator kernels against per-row reference loops."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from tailsum import _kernels
from tailsum.montecarlo import _shifted_halves


def make_conditional_inputs(m=4096, d=3, rho=0.5, u=30.0, mix=0.5, seed=5,
                            heterogeneous=False):
    """Kernel arguments for an equicorrelated standard model, or, with
    ``heterogeneous``, for distinct lam/bg/shift per margin and a random
    correlation matrix, so that a per-column index mix-up changes the
    result.  The margins' half bits alternate 0, 1, 0, ...  ``e`` holds
    the independent normals, one column per draw, and ``sub_chol[j]`` is
    chol(Sigma_-j), margin j's conditioning factor."""
    rng = np.random.default_rng(seed)
    if heterogeneous:
        a = rng.standard_normal((d, d + 2))
        cov = a @ a.T
        sd = np.sqrt(np.diag(cov))
        sig = cov / np.outer(sd, sd)
        lam = rng.uniform(0.5, 3.0, d)
        bg = rng.uniform(0.4, 1.6, d)
        shift = rng.uniform(0.5, 2.0, (d, d - 1))
    else:
        sig = np.full((d, d), rho)
        np.fill_diagonal(sig, 1.0)
        lam = np.full(d, 1.0)
        bg = np.full(d, 1.0)
        shift = np.full((d, d - 1), 1.3)
    e = rng.standard_normal((d, m))
    bits = np.arange(d) % 2
    others = np.array([[i for i in range(d) if i != j] for j in range(d)],
                      dtype=np.int64)
    sub_chol = np.empty((d, d - 1, d - 1))
    alpha = np.empty((d, d - 1))
    cond_sd = np.empty(d)
    tilt_vec = np.empty((d, d - 1))
    tilt_const = np.empty(d)
    for j in range(d):
        sub = sig[np.ix_(others[j], others[j])]
        cross = sig[others[j], j]
        sub_chol[j] = np.linalg.cholesky(sub)
        alpha[j] = np.linalg.solve(sub, cross)
        cond_sd[j] = math.sqrt(1.0 - cross @ alpha[j])
        tilt_vec[j] = np.linalg.solve(sub, shift[j])
        tilt_const[j] = 0.5 * shift[j] @ tilt_vec[j]
    return dict(e=e, bits=bits, u=u, lam=lam, bg=bg, others=others,
                sub_chol=sub_chol, sig=sig, alpha=alpha, cond_sd=cond_sd,
                shift=shift, tilt_vec=tilt_vec, tilt_const=tilt_const, mix=mix)


def run_conditional(inputs):
    d, m = inputs["e"].shape
    # mix 0 is the plain decomposition: no row is shifted
    shifted = (_shifted_halves(m, inputs["bits"]) if inputs["mix"] > 0.0
               else [slice(0, 0)] * d)
    # the plan's layout: chol(Sigma_-j) in the columns others[j]
    factor = np.zeros((d, d - 1, d))
    for j in range(d):
        factor[j][:, inputs["others"][j]] = inputs["sub_chol"][j]
    out = np.empty(m)
    _kernels.conditional_chunk(inputs["e"], shifted, out, inputs["u"],
                               inputs["lam"], inputs["bg"], inputs["others"],
                               factor, inputs["alpha"], inputs["cond_sd"],
                               inputs["shift"], inputs["tilt_vec"],
                               inputs["tilt_const"], inputs["mix"])
    return out


def per_margin_vectors(e, others, sub_chol):
    """Margin j's conditioning vectors y_-j = chol(Sigma_-j) e_-j, built
    one draw and one entry at a time: (d, m, d-1)."""
    d, m = e.shape
    ys = np.zeros((d, m, d - 1))
    for j in range(d):
        for i in range(m):
            for a in range(d - 1):
                ys[j, i, a] = math.fsum(sub_chol[j, a, b] * e[others[j, b], i]
                                        for b in range(a + 1))
    return ys


def loop_reference(inputs, ys=None):
    """``conditional_loop`` on the inputs, with the per-margin vectors
    unless ``ys`` is given."""
    if ys is None:
        ys = per_margin_vectors(inputs["e"], inputs["others"],
                                inputs["sub_chol"])
    keys = ("bits", "u", "lam", "bg", "others", "alpha", "cond_sd", "shift",
            "tilt_vec", "tilt_const", "mix")
    return conditional_loop(ys, **{key: inputs[key] for key in keys})


def conditional_loop(ys, bits, u, lam, bg, others, alpha, cond_sd, shift,
                     tilt_vec, tilt_const, mix):
    """The integrand one draw, one margin and one other margin at a time,
    with the overflow-safe form of the mixture weight; ys[j, i] are the
    other margins of margin j in draw i.  Row i is shifted for margin j
    when it lies in the first half of the rows (the single row of a
    one-row block) and bits[j] is 0, or in the second half and bits[j]
    is 1."""
    d, m = ys.shape[:2]
    tilted = mix > 0.0
    out = np.empty(m)
    for i in range(m):
        acc = 0.0
        for j in range(d):
            picked = tilted and (i < (m + 1) // 2) == (bits[j] == 0)
            q = mx = sm = mu_c = 0.0
            for k in range(d - 1):
                o = others[j, k]
                yk = ys[j, i, k] + (shift[j, k] if picked else 0.0)
                q += tilt_vec[j, k] * yk
                xk = lam[o] * math.exp(bg[o] * yk)
                sm += xk
                mx = max(mx, xk)
                mu_c += alpha[j, k] * yk
            if tilted:
                q -= tilt_const[j]
                if q > 0.0:
                    eq = math.exp(-q)
                    w = eq / (mix + (1.0 - mix) * eq)
                else:
                    w = 1.0 / (mix * math.exp(q) + (1.0 - mix))
            else:
                w = 1.0
            threshold = max(mx, u - sm)
            z = (math.log(threshold / lam[j]) / bg[j] - mu_c) / cond_sd[j]
            acc += w * 0.5 * math.erfc(z / math.sqrt(2.0))
        out[i] = acc
    return out


class TestCrudeChunk:
    def test_matches_reference(self):
        # d in {2, 5}, each with unit and with distinct per-margin lam/bg,
        # so that a per-column index mix-up changes the count
        rng = np.random.default_rng(0)
        for d in (2, 5):
            y = rng.standard_normal((10_000, d))
            for lam, bg in ((np.ones(d), np.ones(d)),
                            (rng.uniform(0.5, 3.0, d), rng.uniform(0.4, 1.6, d))):
                u = 2.0 * d
                x = lam * np.exp(bg * y)
                expected = int(np.count_nonzero(x.sum(axis=1) > u))
                assert 0 < expected < len(y)
                assert _kernels.crude_chunk(y, u, lam, bg) == expected, (d, lam, bg)


class TestConditionalChunk:
    @pytest.mark.parametrize("heterogeneous", [False, True])
    @pytest.mark.parametrize("mix", [0.0, 0.5])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_loop_reference(self, d, mix, heterogeneous):
        inputs = make_conditional_inputs(m=300, d=d, u=12.0, mix=mix,
                                         seed=d, heterogeneous=heterogeneous)
        expected = loop_reference(inputs)
        assert expected.min() > 0.0
        np.testing.assert_allclose(run_conditional(inputs), expected,
                                   rtol=1e-12, atol=0.0)

    def test_each_margin_conditions_through_its_own_factor(self):
        # on a heterogeneous d=4 Sigma the kernel matches the per-margin
        # reference, and not one that takes margin j's conditioning vector
        # from the rows others[j] of chol(Sigma) e
        inputs = make_conditional_inputs(m=200, d=4, u=12.0, seed=11,
                                         heterogeneous=True)
        out = run_conditional(inputs)
        np.testing.assert_allclose(out, loop_reference(inputs),
                                   rtol=1e-12, atol=0.0)
        y = (np.linalg.cholesky(inputs["sig"]) @ inputs["e"]).T
        wrong = loop_reference(inputs, ys=np.stack(
            [y[:, others] for others in inputs["others"]]))
        assert not np.allclose(out, wrong, rtol=1e-3, atol=0.0)

    def test_a_one_row_block_is_shifted_on_a_zero_bit(self):
        # one row draws from the shifted component where the bit is 0 and
        # from the nominal law where it is 1
        inputs = make_conditional_inputs(m=1, d=2, u=12.0)
        outs = []
        for bit in (0, 1):
            inputs["bits"] = np.full(2, bit)
            rows = _shifted_halves(1, inputs["bits"])
            assert [len(range(1)[r]) for r in rows] == [1 - bit] * 2
            outs.append(run_conditional(inputs))
            np.testing.assert_allclose(outs[-1], loop_reference(inputs),
                                       rtol=1e-12, atol=0.0)
        assert outs[0] != outs[1]

    def test_untilted_matches_direct_formula(self):
        # plain (mix=0) integrand recomputed straight from the definition
        inputs = make_conditional_inputs(m=512, d=2, rho=0.3, u=8.0, mix=0.0)
        out = run_conditional(inputs)
        # a zero shift gives every draw weight exactly 1 at mix 0.5 too
        zero = {key: np.zeros_like(inputs[key])
                for key in ("shift", "tilt_vec", "tilt_const")}
        assert np.array_equal(run_conditional({**inputs, **zero, "mix": 0.5}),
                              out)
        # at d = 2 margin j's conditioning vector is the normal e_(1-j)
        e = inputs["e"]
        expected = np.zeros(e.shape[1])
        for j in range(2):
            yo = e[1 - j]
            xo = np.exp(yo)
            t = np.maximum(xo, 8.0 - xo)
            z = (np.log(t) - 0.3 * yo) / math.sqrt(1 - 0.09)
            expected += 0.5 * erfc(z / math.sqrt(2))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_weights_bounded_by_mixture(self):
        inputs = make_conditional_inputs(mix=0.5)
        out = run_conditional(inputs)
        d = inputs["e"].shape[0]
        # each of the d per-margin terms is (weight <= 1/(1-mix)) * prob <= 2
        assert np.all(out >= 0.0)
        assert np.all(out <= 2.0 * d)

    def test_extreme_tilt_argument_stable(self):
        inputs = make_conditional_inputs(m=256, mix=0.5)
        inputs["shift"] = np.full_like(inputs["shift"], 40.0)
        for j in range(inputs["shift"].shape[0]):
            sub_idx = inputs["others"][j]
            sig = np.full((len(sub_idx), len(sub_idx)), 0.5)
            np.fill_diagonal(sig, 1.0)
            inputs["tilt_vec"][j] = np.linalg.solve(sig, inputs["shift"][j])
            inputs["tilt_const"][j] = 0.5 * inputs["shift"][j] @ inputs["tilt_vec"][j]
        out = run_conditional(inputs)
        assert np.all(np.isfinite(out))

"""Estimator kernels against per-row reference loops."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from tailsum import _kernels


def make_conditional_inputs(m=4096, d=3, rho=0.5, u=30.0, mix=0.5, seed=5,
                            heterogeneous=False):
    """Kernel arguments for an equicorrelated standard model, or, with
    ``heterogeneous``, for distinct lam/bg/shift per margin and a random
    correlation matrix, so that a per-column index mix-up changes the
    result."""
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
    chol = np.linalg.cholesky(sig)
    y = np.ascontiguousarray(rng.standard_normal((m, d)) @ chol.T)
    umix = np.ascontiguousarray(rng.random((m, d)))
    others = np.array([[i for i in range(d) if i != j] for j in range(d)],
                      dtype=np.int64)
    alpha = np.empty((d, d - 1))
    cond_sd = np.empty(d)
    tilt_vec = np.empty((d, d - 1))
    tilt_const = np.empty(d)
    for j in range(d):
        sub = sig[np.ix_(others[j], others[j])]
        cross = sig[others[j], j]
        alpha[j] = np.linalg.solve(sub, cross)
        cond_sd[j] = math.sqrt(1.0 - cross @ alpha[j])
        tilt_vec[j] = np.linalg.solve(sub, shift[j])
        tilt_const[j] = 0.5 * shift[j] @ tilt_vec[j]
    return dict(y=y, umix=umix, u=u, lam=lam, bg=bg, others=others,
                alpha=alpha, cond_sd=cond_sd, shift=shift,
                tilt_vec=tilt_vec, tilt_const=tilt_const, mix=mix)


def run_conditional(inputs):
    out = np.empty(inputs["y"].shape[0])
    _kernels.conditional_chunk(inputs["y"], inputs["umix"], out, inputs["u"],
                               inputs["lam"], inputs["bg"], inputs["others"],
                               inputs["alpha"], inputs["cond_sd"],
                               inputs["shift"], inputs["tilt_vec"],
                               inputs["tilt_const"], inputs["mix"])
    return out


def conditional_loop(y, umix, u, lam, bg, others, alpha, cond_sd, shift,
                     tilt_vec, tilt_const, mix):
    """The integrand one draw, one margin and one other margin at a time,
    with the overflow-safe form of the mixture weight."""
    m, d = y.shape
    tilted = mix > 0.0
    out = np.empty(m)
    for i in range(m):
        acc = 0.0
        for j in range(d):
            picked = tilted and umix[i, j] < mix
            q = mx = sm = mu_c = 0.0
            for k in range(d - 1):
                o = others[j, k]
                yk = y[i, o] + (shift[j, k] if picked else 0.0)
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
        expected = conditional_loop(**inputs)
        assert expected.min() > 0.0
        np.testing.assert_allclose(run_conditional(inputs), expected,
                                   rtol=1e-12, atol=0.0)

    def test_untilted_matches_direct_formula(self):
        # plain (mix=0) integrand recomputed straight from the definition
        inputs = make_conditional_inputs(m=512, d=2, rho=0.3, u=8.0, mix=0.0)
        out = run_conditional(inputs)
        y = inputs["y"]
        expected = np.zeros(len(y))
        for j in range(2):
            yo = y[:, 1 - j]
            xo = np.exp(yo)
            t = np.maximum(xo, 8.0 - xo)
            z = (np.log(t) - 0.3 * yo) / math.sqrt(1 - 0.09)
            expected += 0.5 * erfc(z / math.sqrt(2))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_weights_bounded_by_mixture(self):
        inputs = make_conditional_inputs(mix=0.5)
        out = run_conditional(inputs)
        d = inputs["y"].shape[1]
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

"""Estimator kernels against per-row reference loops."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from tailsum import _kernels


def make_conditional_inputs(m=4096, d=3, rho=0.5, u=30.0, seed=5,
                            heterogeneous=False, zero_shift=False, share=None):
    """Kernel arguments for an equicorrelated standard model, or, with
    ``heterogeneous``, for distinct lam/bg/shift per margin and a random
    correlation matrix, so that a per-column index mix-up changes the
    result.  With ``zero_shift`` the shifted component is the nominal
    law, so every weight is exactly 1.  The margins' bits alternate
    0, 1, 0, ...  and every margin's shifted share is ``share`` (7/8 at
    d >= 3 and 1/2 at d = 2 unless given).  ``e`` holds the independent
    normals, one column per draw, and ``sub_chol[j]`` is chol(Sigma_-j),
    margin j's conditioning factor."""
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
    if zero_shift:
        shift = np.zeros_like(shift)
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
    if share is None:
        share = 0.875 if d >= 3 else 0.5
    return dict(e=e, bits=bits, u=u, lam=lam, bg=bg, others=others,
                sub_chol=sub_chol, sig=sig, alpha=alpha, cond_sd=cond_sd,
                shift=shift, tilt_vec=tilt_vec, tilt_const=tilt_const,
                share=share)


def conditional_args(inputs):
    """``conditional_coefficients`` on the inputs, with every margin's
    share set to the inputs' own: the kernel's arguments after ``out``."""
    d = inputs["e"].shape[0]
    # the plan's layout: chol(Sigma_-j) in the columns others[j]
    factor = np.zeros((d, d - 1, d))
    for j in range(d):
        factor[j][:, inputs["others"][j]] = inputs["sub_chol"][j]
    args = _kernels.conditional_coefficients(
        inputs["u"], inputs["lam"], inputs["bg"], inputs["others"], factor,
        inputs["alpha"], inputs["cond_sd"], inputs["shift"],
        inputs["tilt_vec"], inputs["tilt_const"], np.zeros(d))
    return (*args[:-1], np.full(d, inputs["share"]))


def run_conditional(inputs, log_tilt=None):
    """The kernel's output on the inputs, with ``log_tilt`` in place of
    the folded one if given."""
    d, m = inputs["e"].shape
    args = conditional_args(inputs)
    if log_tilt is not None:
        args = (*args[:-2], np.full(d, log_tilt), args[-1])
    out = np.empty(m)
    _kernels.conditional_chunk(inputs["e"], inputs["bits"], out, *args)
    return out


def equal_halves_kernel(e, bits, coef, offset, lam_ratio, u_ratio, z_scale,
                        log_tilt):
    """The conditional kernel of the equal two-half mixture in one pass,
    with the same numpy operations in the same order: the oracle of its
    output wherever the shifted share is 1/2."""
    d, m = e.shape
    mid = (m + 1) // 2
    out = np.zeros(m)
    prod, t = np.empty((d + 1, m)), np.empty(m)
    x, mu, q = prod[:d - 1], prod[d - 1], prod[d]
    for j in range(d):
        a, b = (mid, m) if bits[j] else (0, mid)
        np.matmul(coef[j], e, out=prod)
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
        q += log_tilt[j]
        denominator = np.exp(q + q) + 1.0
        denominator[a:b] = 2.0 * np.cosh(q[a:b])
        out += t / denominator
    return out


def margin_weights(inputs, j, log_tilt=None):
    """Margin j's mixture weight on every draw, and a mask of the draws
    that are shifted for it: the kernel's output with erfc set to 2
    (a conditional probability of 1) for margin j and to 0 for the
    others, in one pass, where margin k's erfc is the k-th call."""
    d, m = inputs["e"].shape
    assert m <= _kernels._PASS
    calls = iter(range(d))

    def erfc_of_margin_j(t, out):
        out[:] = 2.0 if next(calls) == j else 0.0
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "erfc", erfc_of_margin_j)
        weights = run_conditional(inputs, log_tilt)
    return weights, shifted_rows(inputs["share"], m, inputs["bits"][j])


def block_share(share, m):
    """The shifted share an m-row block takes for a margin with
    ``share``: the share itself, or 1/2 on blocks under 8 rows."""
    return share if m >= 8 else 0.5


def shifted_rows(share, m, bit):
    """Mask of the rows of an m-row block drawn from the shifted
    component for a margin with ``share`` and ``bit``: the first
    ceil(s m) rows on bit 0 (the single row of a one-row block), the last
    floor(s m) on bit 1, with s = ``block_share(share, m)``."""
    share = block_share(share, m)
    rows = np.arange(m)
    if bit == 0:
        return rows < math.ceil(share * m)
    return rows >= m - math.floor(share * m)


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
            "tilt_vec", "tilt_const", "share")
    return conditional_loop(ys, **{key: inputs[key] for key in keys})


def power_weight(q, shifted, share):
    """The weight of a draw of the two-component mixture with the shifted
    component on a ``share`` s of the draws and the nominal law on the
    rest a0 = 1 - s, at log likelihood ratio q = log r of the shifted law
    to the nominal.  The power heuristic's (exponent 2) shares of the
    components, with densities a0 and s r relative to the nominal law,
    are 1 / (1 + R^2) and R^2 / (1 + R^2) with R = s r / a0; they sum to
    1 at every point, and each is divided by its component's share of
    the draws times its density relative to the nominal law."""
    a0 = 1.0 - share
    r = math.exp(q)
    big_r = share * r / a0
    if shifted:
        return big_r * big_r / (1.0 + big_r * big_r) / (share * r)
    return 1.0 / (1.0 + big_r * big_r) / a0


def conditional_loop(ys, bits, u, lam, bg, others, alpha, cond_sd, shift,
                     tilt_vec, tilt_const, share):
    """The integrand one draw, one margin and one other margin at a time,
    with ``power_weight`` on the mixture's components; ys[j, i] are the
    other margins of margin j in draw i, and row i is shifted for margin
    j where ``shifted_rows`` says so."""
    d, m = ys.shape[:2]
    picks = [shifted_rows(share, m, bit) for bit in bits]
    share = block_share(share, m)
    out = np.empty(m)
    for i in range(m):
        acc = 0.0
        for j in range(d):
            picked = bool(picks[j][i])
            q = mx = sm = mu_c = 0.0
            for k in range(d - 1):
                o = others[j, k]
                yk = ys[j, i, k] + (shift[j, k] if picked else 0.0)
                q += tilt_vec[j, k] * yk
                xk = lam[o] * math.exp(bg[o] * yk)
                sm += xk
                mx = max(mx, xk)
                mu_c += alpha[j, k] * yk
            q -= tilt_const[j]
            w = power_weight(q, picked, share)
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

    def test_counts_rows_in_every_pass(self):
        # more rows than one pass of the kernel, the last pass partial, in
        # the (m, d) transposed view that model._draw_chunk returns
        rows = _kernels._PASS
        m = 2 * rows + 5
        y = np.zeros((2, m)).T
        hit = [0, rows - 1, rows, 2 * rows, m - 1]
        y[hit, 1] = 3.0  # 1 + e^3 > 10 > 2
        assert _kernels.crude_chunk(y, 10.0, np.ones(2), np.ones(2)) == len(hit)


class TestConditionalChunk:
    @pytest.mark.parametrize("heterogeneous", [False, True])
    @pytest.mark.parametrize("zero_shift", [True, False])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_loop_reference(self, d, zero_shift, heterogeneous):
        inputs = make_conditional_inputs(m=300, d=d, u=12.0, seed=d,
                                         heterogeneous=heterogeneous,
                                         zero_shift=zero_shift)
        expected = loop_reference(inputs)
        assert expected.min() > 0.0
        np.testing.assert_allclose(run_conditional(inputs), expected,
                                   rtol=1e-12, atol=0.0)

    def test_scales_spanning_six_decades(self):
        # the kernel divides by no lam_j: x_k carries lam_k / lam_j and the
        # gap u / lam_j, folded in conditional_coefficients
        inputs = make_conditional_inputs(m=300, d=5, u=1e3, seed=17,
                                         heterogeneous=True)
        inputs["lam"] = np.array([1e-1, 1e3, 1e-3, 10.0, 1.0])
        expected = loop_reference(inputs)
        assert expected.min() > 0.0
        np.testing.assert_allclose(run_conditional(inputs), expected,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [2, 5])
    def test_every_margin_shifted_on_the_same_half(self, d):
        # every margin's shifted component on the first half (bits 0),
        # then on the second (bits 1): each against the loop, and every
        # draw's value changes with the bits
        inputs = make_conditional_inputs(m=300, d=d, u=12.0, seed=d,
                                         heterogeneous=True, share=0.5)
        outs = []
        for bit in (0, 1):
            inputs["bits"] = np.full(d, bit)
            outs.append(run_conditional(inputs))
            expected = loop_reference(inputs)
            assert expected.min() > 0.0
            np.testing.assert_allclose(outs[-1], expected, rtol=1e-12, atol=0.0)
        assert not np.any(outs[0] == outs[1])

    @pytest.mark.parametrize("heterogeneous", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("m", [300, 301])
    def test_passes_split_the_shifted_halves(self, monkeypatch, m, d,
                                             heterogeneous):
        # 64 columns per pass: each run's edge falls inside a pass and the
        # last pass is partial (halves at d = 2, 7/8 runs at d >= 3); the
        # result is the one-pass result, bit for bit
        inputs = make_conditional_inputs(m=m, d=d, u=12.0, seed=d,
                                         heterogeneous=heterogeneous)
        whole = run_conditional(inputs)
        width = 64
        monkeypatch.setattr(_kernels, "_PASS", width)
        for bit in (0, 1):
            edges = np.flatnonzero(
                np.diff(shifted_rows(inputs["share"], m, bit))) + 1
            assert len(edges) == 1 and edges[0] % width != 0
        assert m % width != 0
        out = run_conditional(inputs)
        np.testing.assert_allclose(out, loop_reference(inputs),
                                   rtol=1e-12, atol=0.0)
        assert np.array_equal(out, whole)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("m, cuts", [(256, (128,)), (512, (64, 448)),
                                         (301, (150, 200))])
    def test_chunks_of_a_block_split_its_runs(self, monkeypatch, m, cuts, d):
        # a block run in chunks, each given its start and the block's
        # size, is the whole block bit for bit: the cuts fall inside the
        # shifted runs (halves at d = 2, 7/8 runs at d >= 3) and, at 64
        # columns per pass, inside passes
        inputs = make_conditional_inputs(m=m, d=d, u=12.0, seed=d,
                                         heterogeneous=True)
        args = conditional_args(inputs)
        monkeypatch.setattr(_kernels, "_PASS", 64)
        out = np.empty(m)
        for bit in (0, 1):
            inputs["bits"] = (np.arange(d) + bit) % 2
            whole = run_conditional(inputs)
            edges = (0, *cuts, m)
            for start, stop in zip(edges, edges[1:]):
                _kernels.conditional_chunk(
                    inputs["e"][:, start:stop], inputs["bits"],
                    out[start:stop], *args, start=start, block=m)
            assert np.array_equal(out, whole)

    def test_scratch_memory_is_one_pass_wide(self, monkeypatch):
        # numpy reports its array data to tracemalloc: the kernel's own
        # allocations at d = 5 and m = 2^16 stay within a bound set by
        # the pass width, not by m
        inputs = make_conditional_inputs(m=1 << 16, d=5, u=12.0)
        kernel = _kernels.conditional_chunk
        peaks = []

        def traced(*args):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                kernel(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                if started:
                    tracemalloc.stop()

        monkeypatch.setattr(_kernels, "conditional_chunk", traced)
        run_conditional(inputs)
        assert 0 < peaks[0] < 8 * _kernels._PASS * 8

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
        # from the nominal law where it is 1: the kernel gives it the
        # value of that draw in a two-row block holding it twice, where
        # bit 0 shifts the first row and bit 1 the second
        inputs = make_conditional_inputs(m=1, d=2, u=12.0)
        twice = {**inputs, "e": np.repeat(inputs["e"], 2, axis=1)}
        outs = []
        for bit in (0, 1):
            inputs["bits"] = twice["bits"] = np.full(2, bit)
            outs.append(run_conditional(inputs))
            np.testing.assert_allclose(outs[-1], loop_reference(inputs),
                                       rtol=1e-12, atol=0.0)
            shifted, nominal = run_conditional(twice)[::1 - 2 * bit]
            np.testing.assert_allclose(outs[-1][0], nominal if bit else shifted,
                                       rtol=1e-14, atol=0.0)
        assert outs[0] != outs[1]

    def test_untilted_matches_direct_formula(self):
        # at a zero shift every weight is exactly 1: the plain integrand,
        # recomputed straight from the definition, whichever half the
        # bits pick
        inputs = make_conditional_inputs(m=512, d=2, rho=0.3, u=8.0,
                                         zero_shift=True)
        out = run_conditional(inputs)
        assert np.array_equal(run_conditional({**inputs, "bits": 1 - inputs["bits"]}),
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
        inputs = make_conditional_inputs(share=0.5)
        out = run_conditional(inputs)
        d = inputs["e"].shape[0]
        # each of the d per-margin terms is (weight <= 2) * prob <= 2
        assert np.all(out >= 0.0)
        assert np.all(out <= 2.0 * d)

    @pytest.mark.parametrize("d", [2, 5])
    def test_power_weights_bounded_on_each_half(self, d):
        # 1 / (2 a0 cosh L) <= 1 / (2 a0) on the shifted draws and
        # 1 / (a0 (1 + e^(2L))) <= 1 / a0 on the nominal ones, where L < 0
        # puts it above 1 / (2 a0): 1 and 2 at d = 2, 4 and 8 at d = 5
        inputs = make_conditional_inputs(m=2048, d=d, u=12.0, seed=d,
                                         heterogeneous=True)
        a0 = 1.0 - inputs["share"]
        assert a0 == (0.5 if d == 2 else 0.125)
        for j in range(d):
            w, shifted = margin_weights(inputs, j)
            assert np.all(w > 0.0)
            assert np.max(w[shifted]) <= 0.5 / a0
            assert 0.5 / a0 < np.max(w[~shifted]) <= 1.0 / a0

    @pytest.mark.parametrize("d", [2, 5])
    def test_zero_shift_weighs_both_halves_exactly_one(self, d):
        # a zero shift takes halves, and there r = 1 on every draw, where
        # the halves' weights 2 / (1 + r^2) and 2r / (1 + r^2) are both
        # exactly 1, so the bits do not change a single bit
        assert _kernels.shifted_share(d, 0.0, 0.0) == 0.5
        inputs = make_conditional_inputs(m=512, d=d, zero_shift=True,
                                         share=0.5)
        for j in range(d):
            w, _ = margin_weights(inputs, j)
            assert np.all(w == 1.0)
        flipped = {**inputs, "bits": 1 - inputs["bits"]}
        assert np.array_equal(run_conditional(flipped), run_conditional(inputs))

    def test_extreme_tilt_argument_stable(self):
        inputs = make_conditional_inputs(m=256)
        inputs["shift"] = np.full_like(inputs["shift"], 40.0)
        for j in range(inputs["shift"].shape[0]):
            sub_idx = inputs["others"][j]
            sig = np.full((len(sub_idx), len(sub_idx)), 0.5)
            np.fill_diagonal(sig, 1.0)
            inputs["tilt_vec"][j] = np.linalg.solve(sig, inputs["shift"][j])
            inputs["tilt_const"][j] = 0.5 * inputs["shift"][j] @ inputs["tilt_vec"][j]
        out = run_conditional(inputs)
        assert np.all(np.isfinite(out))
        # r = e^(q + log_tilt) past the float range on every draw: an
        # overflowing r weighs both components 0, an underflowing one the
        # shifted component 0 and the nominal one 1 / a0, its limit (2 on
        # halves, 8 at a 7/8 share); never nan
        for share in (0.5, 0.875):
            zero = make_conditional_inputs(m=256, zero_shift=True, share=share)
            limit = 1.0 / (1.0 - share)
            for log_tilt, on_shifted, on_nominal in ((1e3, 0.0, 0.0),
                                                     (-1e3, 0.0, limit)):
                for j in range(3):
                    w, shifted = margin_weights(zero, j, log_tilt)
                    assert not np.any(np.isnan(w))
                    assert np.all(w[shifted] == on_shifted)
                    assert np.all(w[~shifted] == on_nominal)

    @pytest.mark.parametrize("share", [0.5, 0.875])
    def test_power_shares_sum_to_one(self, share):
        # with the shift's offset zero L = log_tilt + log(s / a0) on every
        # draw, so one block holds the nominal and the shifted weight at
        # the same L: the power heuristic's shares a0 * w_nominal and
        # s * r * w_shifted (each weight times its component's share of
        # the draws and its density relative to the nominal law) sum to 1
        zero = make_conditional_inputs(m=256, zero_shift=True, share=share)
        for log_tilt in np.linspace(-30.0, 30.0, 25):
            for j in range(3):
                w, shifted = margin_weights(zero, j, log_tilt)
                nominal, shift_w = np.unique(w[~shifted]), np.unique(w[shifted])
                assert len(nominal) == len(shift_w) == 1
                total = ((1.0 - share) * nominal[0]
                         + share * math.exp(log_tilt) * shift_w[0])
                assert total == pytest.approx(1.0, rel=1e-14)
                for weight, on_shift in ((nominal[0], False), (shift_w[0], True)):
                    assert weight == pytest.approx(
                        power_weight(log_tilt, on_shift, share), rel=1e-13)

    @pytest.mark.parametrize("share", [0.5, 0.875])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("m", [1, 4, 8, 64, 2048])
    def test_shifted_runs_follow_the_bits(self, m, d, share):
        # at a 7/8 share a margin's shifted run is the first 7m/8 columns
        # on bit 0 and the last 7m/8 on bit 1 from m = 8 on; at 1/2, and
        # on smaller blocks, the first (m + 1) // 2 or the last m // 2;
        # seen through the weight, which at log r = 1 differs between the
        # components
        if m < 8:
            share = 0.5
        if share == 0.5:
            runs = ((0, (m + 1) // 2), ((m + 1) // 2, m))
        else:
            runs = ((0, m - m // 8), (m // 8, m))
        zero = make_conditional_inputs(m=m, d=d, zero_shift=True, share=share)
        expected = power_weight(1.0, True, share)
        assert expected != pytest.approx(power_weight(1.0, False, share))
        cols = np.arange(m)
        for bit, (lo, hi) in enumerate(runs):
            zero["bits"] = np.full(d, bit)
            w, _ = margin_weights(zero, d - 1, 1.0)
            on_shift = np.isclose(w, expected, rtol=1e-14, atol=0.0)
            assert np.array_equal(on_shift, (cols >= lo) & (cols < hi))

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("d, m, share", [(2, 300, 0.5), (2, 512, 0.5),
                                             (5, 512, 0.5), (5, 4, 0.875)])
    def test_halves_are_bit_identical_to_the_equal_mixture(self, d, m, share,
                                                            bit):
        # where the share is 1/2 (given, or on a block under 8 points)
        # 2 a0 is exactly 1 and log(s / a0) exactly 0: the output equals,
        # bit for bit, the equal-halves kernel with erfc / (1 + r^2) on
        # the nominal half and erfc / (2 cosh log r) on the shifted one
        inputs = make_conditional_inputs(m=m, d=d, u=12.0, seed=d,
                                         heterogeneous=True, share=share)
        inputs["bits"] = (np.arange(d) + bit) % 2
        args = conditional_args(inputs)
        out = np.empty(m)
        _kernels.conditional_chunk(inputs["e"], inputs["bits"], out, *args)
        assert np.array_equal(out, equal_halves_kernel(
            inputs["e"], inputs["bits"], *args[:-1]))


class TestShiftedShare:
    @pytest.mark.parametrize("d, tilt_const, gain, share", [
        (3, 2.0, 2.0, 0.875), (5, 18.5, 29.2, 0.875), (4, math.inf, 40.0, 0.875),
        (2, 18.5, 29.2, 0.5),       # d = 2 keeps halves
        (3, 0.0, 0.0, 0.5),         # a zero shift: the two laws are one
        (3, 1.99, 30.0, 0.5),       # a bulk threshold's near shift
        (5, 6.0, 1.99, 0.5),        # a second region at the origin
    ])
    def test_far_shifts_take_seven_eighths(self, d, tilt_const, gain, share):
        assert _kernels.shifted_share(d, tilt_const, gain) == share

    def test_coefficients_set_each_margins_share(self):
        # margin j's share is shifted_share of its own tilt constant and
        # gain, which are independent of the other margins'
        inputs = make_conditional_inputs(m=8, d=4, seed=3, heterogeneous=True)
        d = 4
        inputs["tilt_const"] = np.array([0.5, 3.0, 3.0, 2.5])
        gain = np.array([5.0, 5.0, 1.0, 2.5])
        factor = np.zeros((d, d - 1, d))
        for j in range(d):
            factor[j][:, inputs["others"][j]] = inputs["sub_chol"][j]
        args = _kernels.conditional_coefficients(
            inputs["u"], inputs["lam"], inputs["bg"], inputs["others"], factor,
            inputs["alpha"], inputs["cond_sd"], inputs["shift"],
            inputs["tilt_vec"], inputs["tilt_const"], gain)
        assert args[-1].tolist() == [0.5, 0.875, 0.5, 0.875]
        assert np.array_equal(args[-2], -inputs["tilt_const"])

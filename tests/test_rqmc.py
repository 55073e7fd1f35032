"""The RQMC point set of the conditional estimator: Sobol blocks, their
digital shifts, the lattice inverse normal and ``block_means``."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from tailsum import conditional_max_mc
from tailsum.model import SAMPLE_CHUNK
from tailsum.rqmc import (_block_layout, _chunk_shifts, _direction_numbers,
                          _lattice_classes, _lattice_digits, _lattice_ndtri,
                          _mirror, _ndtri_tables, _sobol_base, block_means)


def shift_rows(rows, h, k):
    """Oracle of the digitally shifted points of ``_lattice_ndtri``:
    (rows XOR h + (k + 1/2) 2^-36) 2^-16 as float64, row by row."""
    x = np.bitwise_xor(rows, h).astype(np.float64)
    x += (k + 0.5) * 2.0 ** -36
    x *= 2.0 ** -16
    return x


def shift_word(h, k):
    """The digital shift word h 2^36 + k of ``_lattice_ndtri``."""
    return (h.astype(np.uint64) << np.uint64(36)) | k.astype(np.uint64)


def lattice_normals(digits, word, tables):
    """``_lattice_ndtri`` into new output and cell buffers."""
    return _lattice_ndtri(digits, word, tables, np.empty(digits.shape),
                          np.empty(digits.shape[1]))



class TestRqmc:
    @pytest.mark.parametrize("dim", [2, 4, 10, 20])
    def test_sobol_base_matches_scipy(self, dim):
        from scipy.stats import qmc

        expected = qmc.Sobol(dim, scramble=False).random_base2(16)
        assert np.array_equal(_sobol_base(dim).T / 65536.0, expected)

    def test_estimate_does_not_import_scipy_stats(self):
        code = ("import sys, tailsum; "
                "tailsum.conditional_max_mc(tailsum.ModelSpec.standard(2, 0.5), "
                "10.0, 1000, seed=1); "
                "print('scipy.stats' in sys.modules)")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_gaussian_copula_paths_load_no_optimize_integrate_or_stats(self):
        code = "\n".join([
            "import sys, tailsum",
            "from tailsum.cli import load_config",
            "config = load_config('table1')",
            "spec = config.build_model()",
            "options = tailsum.McOptions(estimator='conditional_max', n=4096,"
            " seed=1)",
            "tailsum.build_table(spec, config.u_list, options)",
            "tailsum.conditional_max_mc(tailsum.ModelSpec.standard(5, 0.5), 100.0,"
            " 4096, seed=1)",
            "tailsum.crude_mc(tailsum.ModelSpec.standard(2, 0.5), 10.0, 4096,"
            " seed=1)",
            "tailsum.approximate(spec, 100.0)",
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate',"
            " 'scipy.stats') if m in sys.modules))",
        ])
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("n, rounded", [(1, 16), (1000, 1024),
                                            (150_000, 155_648),
                                            (250_000, 262_144),
                                            (10**6, 1_048_576),
                                            (2 * 10**6, 2_097_152),
                                            (10**7, 10_485_760)])
    def test_n_rounds_up_to_whole_blocks(self, standard_spec, n, rounded):
        # the largest block that leaves at least 16 blocks: 1e6 is 16
        # blocks of 2^16, 2e6 16 of 2^17 and 1e7 20 of 2^19
        block, blocks = _block_layout(n)
        assert block & (block - 1) == 0
        assert blocks >= 16
        assert -(-n // (2 * block)) < 16
        assert blocks == 16 or blocks * block - n < block < n / 15
        est = conditional_max_mc(standard_spec(0.5), 10.0, n, seed=3)
        assert est.n == blocks * block == rounded

    def test_shifted_points_stay_inside_the_unit_interval(self):
        base = _sobol_base(4)
        top = shift_rows(base, np.full((4, 1), 0xFFFF, dtype=np.uint16),
                          np.full((4, 1), 2**36 - 1))
        bottom = shift_rows(base, np.zeros((4, 1), dtype=np.uint16),
                             np.zeros((4, 1), dtype=np.int64))
        for x in (top, bottom):
            assert 0.0 < x.min() and x.max() < 1.0
            assert np.all(np.isfinite(ndtri(x)))


class TestLatticeNdtri:
    @pytest.mark.parametrize("bits", [0, 8, 15, 16])
    def test_rows_hold_each_lattice_digit_once(self, bits):
        rows = _sobol_base(10)[:, :1 << bits]
        expected = np.arange(1 << bits) << (16 - bits)
        for row in rows:
            assert np.array_equal(np.sort(row), expected)

    @pytest.mark.parametrize("bits", range(17))
    def test_matches_ndtri_on_every_cell(self, bits):
        rows = _sobol_base(4)[:, :1 << bits]
        digits = _lattice_digits(4)[:, :1 << bits]
        tables = _ndtri_tables(_lattice_classes(1 << bits))
        tail = tables[-1]
        rng = np.random.default_rng(bits)
        shifts = [(np.full((4, 1), h, dtype=np.uint16), np.full((4, 1), k))
                  for h in (0, 0xFFFF) for k in (0, 2**36 - 1)]
        shifts += [(rng.integers(0, 2**16, size=(4, 1), dtype=np.uint16),
                    rng.integers(0, 2**36, size=(4, 1))) for _ in range(8)]
        for h, k in shifts:
            got = lattice_normals(digits, shift_word(h, k), tables)
            expected = ndtri(shift_rows(rows, h, k))
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - expected)) <= 1e-14
            cell = np.bitwise_xor(rows, h)
            in_tail = (cell < tail) | (cell >= 65536 - tail)
            assert np.array_equal(got[in_tail], expected[in_tail])

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("bits", [17, 18])
    def test_chunks_of_a_large_block_are_its_shifted_net(self, bits, d):
        # chunk by chunk, the normals of a block of 2^bits points are
        # ndtri of scipy's unscrambled Sobol points under the block's
        # digital shift, point by point in Sobol order
        from scipy.stats import qmc

        chunks = 1 << (bits - 16)
        points = qmc.Sobol(d, scramble=False).random_base2(bits).T
        digits = (points * 2.0 ** 30).astype(np.uint64) << np.uint64(22)
        base = _lattice_digits(d)
        tables = _ndtri_tables(_lattice_classes(1 << 16))
        shifts = _chunk_shifts(d, chunks)
        rng = np.random.default_rng(bits + d)
        for h, k in [(np.zeros((d, 1), dtype=np.uint16),
                      np.zeros((d, 1), dtype=np.int64)),
                     (rng.integers(0, 2**16, size=(d, 1), dtype=np.uint16),
                      rng.integers(0, 2**36, size=(d, 1)))]:
            shift = shift_word(h, k)
            got = np.hstack([lattice_normals(base, shift ^ shifts[c], tables)
                             for c in range(chunks)])
            x = np.bitwise_xor(digits, shift)
            expected = ndtri(shift_rows(x >> np.uint64(36), 0,
                                        x & np.uint64(2**36 - 1)))
            assert np.max(np.abs(got - expected)) <= 1e-14

    @pytest.mark.parametrize("bits", range(17))
    def test_mirror_index_maps_a_block_onto_its_cells(self, bits):
        # (_mirror(D) XOR _mirror(h)) >> (16 - b) takes the 2^b points of a
        # block one to one onto the 2^b positions of their cells: first the
        # cells j = i 2^(16-b) + r of the lower half in order, then the
        # mirror cells 2^16 - 1 - j of the upper half in order
        m, s = 1 << bits, 16 - bits
        step = 1 << s
        rows = _sobol_base(3)[:, :m].astype(np.int64)
        digits = _lattice_digits(3)[:, :m].astype(np.int64)
        for h in (0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF, 12345, 54321):
            r = h % step
            mid = -(-(2**15 - r) // step)
            cell = np.bitwise_xor(rows, h)
            idx = np.bitwise_xor(digits, _mirror(h)) >> s
            lower = (idx << s) + r
            upper = 2**16 - 1 - (((idx - mid) << s) + step - 1 - r)
            for row_idx in idx:
                assert np.array_equal(np.sort(row_idx), np.arange(m))
            assert np.array_equal(cell, np.where(idx < mid, lower, upper))

    def test_direction_numbers_read_only_their_rows(self):
        # the 21,201 x 18 int64 vinit table is 3 MB; reading the 5 rows
        # of d = 5 must not load it (numpy and zipfile report their
        # buffers to tracemalloc)
        tracemalloc.start()
        try:
            v = _direction_numbers.__wrapped__(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak
        assert np.array_equal(v, _direction_numbers(5))

    def test_tables_take_one_mib_and_are_built_once(self):
        tables = _ndtri_tables(2)
        wide, narrow, tail = tables
        assert wide.nbytes + narrow.nbytes <= 2**20
        assert _ndtri_tables(2) is tables
        assert 0.01 < 2 * tail / 65536 < 0.03


class TestBlockMeans:
    @pytest.mark.parametrize("n", [16, 1000, 10**6, 2 * 10**6])
    def test_constant_integrand_runs_one_part_per_chunk(self, n):
        # a constant integrand has block means of exactly 1.0, and the
        # engine hands ``run`` its task last and one part per 2^16 draws
        points, calls = [], []

        def integrand(e, bits, out, first, block):
            assert e.shape == (3, len(out)) and bits.shape == (3,)
            assert 0 <= first < first + len(out) <= block
            points.append(len(out))
            out[:] = 1.0

        def run(*args):
            parts, task = args
            results, drawn = [], []
            for part in parts:
                before = len(points)
                results.append(task(*part))
                drawn.append(sum(points[before:]))
            calls.append(drawn)
            return results

        block, blocks = _block_layout(n)
        means, draws = block_means(3, n, 5, integrand, run)
        assert means == [1.0] * blocks
        assert draws == blocks * block == sum(points)
        assert calls == [[min(draws, SAMPLE_CHUNK)] * -(-draws // SAMPLE_CHUNK)]

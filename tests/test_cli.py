"""Command-line interface: configs, output formats, exit codes, determinism."""

import io
import json
import math
import sys

import pytest

from reference_tables import matches_printed
from tailsum.cli import (BUNDLED, RunConfig, load_config, main, read_csv,
                         write_csv)
from tailsum import montecarlo
from tailsum.diagnostics import DiagnosticsRow


@pytest.fixture()
def run_cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestConfig:
    def test_bundled_configs_load(self):
        for name in BUNDLED:
            cfg = load_config(name)
            assert cfg.d == 2
            assert len(cfg.u_list) > 0

    def test_bundled_configs_differ_only_in_rho(self):
        base = {name: load_config(name) for name in BUNDLED}
        rhos = {base[n].rho for n in BUNDLED}
        assert rhos == {0.9, 0.5, 0.0, -0.9}
        # every non-rho, non-threshold field agrees across the bundle
        for field in ("d", "lam", "beta", "gamma", "radial_kind",
                      "radial_params", "mc_estimator", "mc_n", "mc_seed",
                      "variant", "epsilon_c", "out_format"):
            assert len({getattr(base[n], field) for n in BUNDLED}) == 1

    def test_round_trip(self):
        cfg = load_config("table2")
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_defaults(self):
        cfg = RunConfig.from_dict({"model": {"d": 3}})
        assert cfg.lam == (1.0, 1.0, 1.0)
        assert cfg.beta == (1.0, 1.0, 1.0)
        assert cfg.gamma == 1.0
        assert cfg.radial_kind == "ChiOfDim"
        assert cfg.radial_params == (3,)
        assert cfg.variant == "density"
        assert cfg.epsilon_c == 1.0

    def test_full_sigma_accepted(self, tmp_path):
        raw = {"model": {"d": 2, "sigma": [[1.0, 0.25], [0.25, 1.0]]},
               "u_list": [10.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(str(path))
        spec = cfg.build_model()
        assert spec.sigma.entries[0, 1] == 0.25

    @pytest.mark.parametrize("raw, name", [
        ([1], "config"), ("table1", "config"), ({"model": [1]}, "model"),
        ({"model": None}, "model"), ({"model": {"radial": "ChiOfDim"}}, "model.radial"),
        ({"mc": 3}, "mc"), ({"output": "csv"}, "output")],
        ids=["list", "string", "model-list", "model-null", "radial-string",
             "mc-number", "output-string"])
    def test_non_object_section_exits_1_naming_it(self, run_cli, tmp_path,
                                                  raw, name):
        # a list at the top used to escape as an AttributeError traceback,
        # a string radial as an opaque dict() message
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli("approx", "--config", str(path), "--u", "10")
        assert code == 1
        assert out == ""
        assert err.startswith(f"invalid config: {name} must be a JSON object, got ")

    def test_unknown_name_rejected(self):
        from tailsum.cli import ConfigError

        with pytest.raises(ConfigError):
            load_config("table9")


class TestTableCommand:
    def test_csv_round_trip_full_precision(self, run_cli, tmp_path):
        out = tmp_path / "t3.csv"
        code, _, _ = run_cli("table", "--config", "table3", "--no-mc",
                             "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = read_csv(fh)
        assert len(rows) == 10
        assert matches_printed(rows[0].asympt1, "0.0213")
        assert matches_printed(rows[0].asympt2, "0.0306")
        # full-precision round trip through the writer
        buf = io.StringIO()
        write_csv(rows, buf)
        buf.seek(0)
        again = read_csv(buf)
        assert again == rows

    @pytest.mark.parametrize("raw, expected", [
        ({"model": {"d": 2, "rho": 0.3,
                    "radial": {"kind": "WeibullTail", "params": [3.0]}},
          "u_list": [1e4, 1e12]}, [-340.958, -9164.179]),
        ({"model": {"d": 2, "rho": 0.9}, "u_list": [1e20, 1e40]},
         [-462.101, -1844.126]),
    ], ids=["weibull3", "table1"])
    def test_deep_rows_write_the_log10_approximations(self, run_cli, tmp_path,
                                                      raw, expected):
        # the linear columns underflow to 0 here; the log10 columns were
        # missing, so the written table lost both approximations
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli("table", "--config", str(path), "--no-mc")
        assert code == 0
        rows = read_csv(io.StringIO(out))
        assert [row.asympt2 for row in rows] == [0.0, 0.0]
        assert [round(row.log10_asympt2, 3) for row in rows] == expected
        assert all(row.log10_asympt1 < row.log10_asympt2 for row in rows)

    def test_markdown_output(self, run_cli):
        code, out, _ = run_cli("table", "--config", "table4", "--no-mc",
                               "--format", "markdown")
        assert code == 0
        assert out.startswith("| u |")
        assert "0.673" in out  # second order at u=2

    def test_closed_stdout_is_not_a_config_error(self, capsys, monkeypatch,
                                                 tmp_path):
        # ``tailsum table | head -1``: the reader is gone, so the writes
        # raise BrokenPipeError; exit 1 with nothing on stderr
        class ClosedPipe(io.TextIOBase):
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
            code = main(["table", "--config", "table1", "--no-mc",
                         "--format", "markdown"])
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_unreadable_config_and_unwritable_out_are_config_errors(
            self, run_cli, tmp_path):
        code, _, err = run_cli("table", "--config", str(tmp_path), "--no-mc")
        assert code == 1
        assert err.startswith("invalid config: cannot read config")
        code, _, err = run_cli("table", "--config", "table3", "--no-mc",
                               "--out", str(tmp_path / "missing" / "t.csv"))
        assert code == 1
        assert err.startswith("invalid config: cannot write")

    def test_u_override(self, run_cli):
        code, out, _ = run_cli("table", "--config", "table3", "--no-mc",
                               "--u", "10,30")
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + 2 rows

    def test_mc_column_runs(self, run_cli):
        code, out, _ = run_cli("table", "--config", "table3", "--no-mc",
                               "--u", "10")
        no_mc_rows = out
        code, out, _ = run_cli("table", "--config", "table3",
                               "--u", "10", "--n", "20000", "--seed", "5")
        assert code == 0
        assert out != no_mc_rows
        row = out.strip().splitlines()[1].split(",")
        assert row[3] != ""  # mc present

    def test_margin_scale_past_the_float_range_exits_0(self, run_cli, tmp_path):
        # at gamma = 0.5, (u/lam)^(1/(beta gamma)) = u^2 overflows at 1e160;
        # the config is valid and used to exit 1 naming an infinite threshold
        raw = {"model": {"d": 2, "gamma": 0.5, "rho": 0.5},
               "u_list": [1e100, 1e160]}
        path = tmp_path / "gamma05.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli("table", "--config", str(path), "--no-mc")
        assert (code, err) == (0, "")
        rows = read_csv(io.StringIO(out))
        assert [row.u for row in rows] == [1e100, 1e160]
        assert all(0.0 < row.rho_hat < 1.0 for row in rows)

    def test_overflowing_exp_epsilon_is_written_as_inf(self, run_cli):
        # epsilon > 709.78 from c = 10 at u = 1e3 on table1: exp(epsilon)
        # used to raise OverflowError out of the command
        code, out, _ = run_cli("table", "--config", "table1", "--no-mc",
                               "--epsilon-c", "10")
        assert code == 0
        rows = {row.u: row for row in read_csv(io.StringIO(out))}
        assert rows[1e3].epsilon > 709.79
        assert rows[1e3].exp_epsilon == math.inf

    def test_invalid_dimension_exits_1(self, run_cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"d": 0}, "u_list": [10]}))
        code, _, err = run_cli("table", "--config", str(path), "--no-mc")
        assert code == 1
        assert "dimension" in err

    def test_malformed_json_exits_1(self, run_cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli("table", "--config", str(path), "--no-mc")
        assert code == 1

    def test_workers_reach_estimator_without_changing_csv(
            self, run_cli, monkeypatch):
        seen = []
        run_chunks = montecarlo._run_chunks

        def recording(parts, workers, task):
            seen.append((workers, len(parts)))
            return run_chunks(parts, workers, task)

        monkeypatch.setattr(montecarlo, "_run_chunks", recording)
        args = ("table", "--config", "table1", "--u", "100",
                "--n", "150000", "--seed", "5")
        outs = [run_cli(*args, "--workers", w)[1] for w in ("1", "2")]
        # 19 blocks of 8,192 points, one task per chunk of 2^16 draws:
        # 8, 8 and 3 blocks
        assert seen == [(1, 3), (2, 3)]
        assert outs[0] == outs[1]

    def test_variant_both_rejected(self, run_cli):
        code, _, err = run_cli("table", "--config", "table3", "--no-mc",
                               "--variant", "both")
        assert code == 1
        assert "limit" in err and "density" in err

    def test_non_positive_definite_exits_1(self, run_cli, tmp_path):
        raw = {"model": {"d": 2, "sigma": [[1.0, 1.0], [1.0, 1.0]]},
               "u_list": [10.0]}
        path = tmp_path / "npd.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli("table", "--config", str(path), "--no-mc")
        assert code == 1
        assert "positive definite" in err


class TestApproxCommand:
    def test_prints_breakdown(self, run_cli):
        code, out, _ = run_cli("approx", "--config", "table1", "--u", "10")
        assert code == 0
        assert "first_order" in out and "second_order" in out
        first = float(out.split("first_order")[1].split()[0])
        second = float(out.split("second_order")[1].split()[0])
        assert matches_printed(first, "0.0213")
        assert matches_printed(second, "0.0705")

    def test_table3_deep_value(self, run_cli):
        code, out, _ = run_cli("approx", "--config", "table3", "--u", "1000")
        assert code == 0
        second = float(out.split("second_order")[1].split()[0])
        assert matches_printed(second, "4.98e-12")

    def test_both_variants(self, run_cli):
        code, out, _ = run_cli("approx", "--config", "table1", "--u", "100",
                               "--variant", "both")
        assert code == 0
        assert "limit_form" in out and "density_form" in out

    def test_underflowed_correction_prints_its_log10(self, run_cli):
        # at u = 1e20 every linear value underflows to 0; the log10 of the
        # correction used to print as -inf next to a finite second order
        code, out, _ = run_cli("approx", "--config", "table1", "--u", "1e20")
        assert code == 0
        line = next(ln for ln in out.splitlines() if ln.startswith("correction"))
        assert line.split() == ["correction", "0", "(log10", "-462.573821)"]

    def test_underflowed_pair_terms_print_their_log10(self, run_cli):
        # the pair lines were filtered on a linear term > 0, so at u = 1e20
        # none was printed
        code, out, _ = run_cli("approx", "--config", "table1", "--u", "1e20")
        assert code == 0
        pairs = [ln.split() for ln in out.splitlines() if ln.startswith("pair")]
        assert pairs == [["pair", "(1,2)", "0", "(log10", "-462.874851)"],
                         ["pair", "(2,1)", "0", "(log10", "-462.874851)"]]

    def test_one_margin_has_no_correction(self, run_cli, tmp_path):
        path = tmp_path / "d1.json"
        path.write_text(json.dumps({"model": {"d": 1, "rho": 0.0}}))
        code, out, _ = run_cli("approx", "--config", str(path), "--u", "10")
        assert code == 0
        assert "correction     0   (log10 -inf)" in out

    def test_nonpositive_u_exits_1(self, run_cli):
        code, _, _ = run_cli("approx", "--config", "table1", "--u", "-3")
        assert code == 1

    @pytest.mark.parametrize("u", ["nan", "inf"])
    def test_non_finite_u_exits_1_naming_the_threshold(self, run_cli, u):
        code, _, err = run_cli("approx", "--config", "table1", "--u", u)
        assert code == 1
        assert "threshold u must be finite and positive" in err

    def test_numeric_failure_exits_2(self, run_cli, tmp_path):
        # a radial law whose margin scaling limit diverges: the second
        # order correction is the numerical failure path, exit code 2
        raw = {"model": {"d": 2, "rho": 0.0,
                         "radial": {"kind": "WeibullTail", "params": [1.0]}},
               "u_list": [10.0]}
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli("approx", "--config", str(path), "--u", "10")
        assert code == 2
        assert "numerical failure" in err

    def test_weibull2_below_unit_scale_factor_exits_0(self, run_cli, tmp_path):
        # WeibullTail(2) has the exact margin scaling limit (gamma beta)^2/2
        # at every scale factor; lam = 0.5 used to fail with exit 2
        raw = {"model": {"d": 2, "lambda": [0.5, 0.5], "rho": 0.5,
                         "radial": {"kind": "WeibullTail", "params": [2.0]}},
               "u_list": [10.0, 100.0]}
        path = tmp_path / "weibull2.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli("approx", "--config", str(path), "--u", "10")
        assert code == 0
        assert "second_order" in out
        code, out, _ = run_cli("table", "--config", str(path), "--no-mc")
        assert code == 0
        assert len(out.splitlines()) == 3


class TestMcCommand:
    @pytest.mark.parametrize("params", [[math.nan], [math.inf], [2.0, math.nan]],
                             ids=["nan", "inf", "2-nan"])
    def test_non_finite_weibull_config_exits_1(self, run_cli, tmp_path, params):
        # json writes and reads NaN and Infinity: the law must refuse them,
        # not let crude_mc return 0 +- 1e-4
        raw = {"model": {"d": 2, "rho": 0.3,
                         "radial": {"kind": "WeibullTail", "params": params}},
               "u_list": [5.0]}
        path = tmp_path / "weibull.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli("mc", "--config", str(path), "--u", "5",
                                 "--n", "10000", "--seed", "1",
                                 "--estimator", "crude")
        assert code == 1
        assert out == ""
        assert "WeibullTail needs finite tau > 0 and scale > 0" in err

    def test_prints_estimate(self, run_cli):
        code, out, _ = run_cli("mc", "--config", "table3", "--u", "10",
                               "--n", "30000", "--seed", "7")
        assert code == 0
        assert "conditional_max" in out
        value = float(out.split("value")[1].split()[0])
        assert value == pytest.approx(0.0337, rel=0.05)

    def test_underflowed_estimate_exits_2(self, run_cli):
        # a valid config whose estimate is 0.0 in double precision is a
        # numerical failure, not an invalid config
        code, out, err = run_cli("mc", "--config", "table1", "--u", "1e20")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert "underflows" in err

    def test_zero_n_exits_1(self, run_cli):
        code, _, _ = run_cli("mc", "--config", "table3", "--u", "10", "--n", "0")
        assert code == 1

    def test_crude_single_draw_exits_1(self, run_cli):
        code, out, err = run_cli("mc", "--config", "table3", "--u", "10",
                                 "--estimator", "crude", "--n", "1")
        assert code == 1
        assert out == ""
        assert "n >= 2" in err

    def test_byte_identical_except_elapsed(self, run_cli):
        args = ("mc", "--config", "table3", "--u", "10", "--n", "20000",
                "--seed", "11")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        strip = lambda s: [ln for ln in s.splitlines() if "elapsed" not in ln]
        assert strip(out1) == strip(out2)

    def test_unknown_estimator_exits_1(self, run_cli, tmp_path):
        raw = load_config("table3").to_dict()
        raw["mc"]["estimator"] = "crud"
        path = tmp_path / "crud.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli("mc", "--config", str(path), "--u", "10",
                                 "--n", "1000")
        assert code == 1
        assert out == ""
        assert "unknown estimator 'crud'" in err

    @pytest.mark.parametrize("command, keys, value, message", [
        ("table", ("output", "format"), "json",
         "unknown output format 'json' (one of csv, markdown)"),
        ("approx", ("variant",), "foo",
         "unknown variant 'foo' (one of density, limit, both)"),
        ("mc", ("model", "sigma"), [[1.0, 0.5], [0.5]],
         "invalid model config: sigma must be a 2x2 matrix, got shape (2,)"),
    ], ids=["format", "variant", "ragged_sigma"])
    def test_bad_config_value_exits_1_naming_it(self, run_cli, tmp_path,
                                                command, keys, value, message):
        # a json format used to write markdown, a bad variant printed a
        # KeyError's text and a ragged sigma numpy's "inhomogeneous shape"
        raw = load_config("table3").to_dict()
        if keys[0] == "model":
            del raw["model"]["rho"]
        section = raw[keys[0]] if len(keys) == 2 else raw
        section[keys[-1]] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(command, "--config", str(path), "--u", "10",
                                 *(["--no-mc"] if command == "table" else []))
        assert code == 1
        assert out == ""
        assert err == f"invalid config: {message}\n"

    def test_crude_estimator_flag(self, run_cli):
        code, out, _ = run_cli("mc", "--config", "table3", "--u", "5",
                               "--n", "20000", "--seed", "3",
                               "--estimator", "crude")
        assert code == 0
        assert "crude" in out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_exits_1_with_a_message(self, run_cli, workers):
        code, out, err = run_cli("mc", "--config", "table3", "--u", "10",
                                 "--n", "1000", "--workers", workers)
        assert code == 1
        assert out == ""
        assert f"workers must be a positive integer, got {workers}" in err

    def test_workers_do_not_change_output(self, run_cli, monkeypatch):
        args = ("mc", "--config", "table3", "--u", "10", "--n", "100000",
                "--seed", "11")
        _, out1, _ = run_cli(*args)
        monkeypatch.setenv("TAILSUM_THREADS", "8")
        _, out2, _ = run_cli(*args)
        strip = lambda s: [ln for ln in s.splitlines() if "elapsed" not in ln]
        assert strip(out1) == strip(out2)


class TestVerifyCommand:
    def test_independent_model_report(self, run_cli):
        code, out, _ = run_cli("verify", "--config", "table3")
        assert code == 0
        # pair condition holds (negative margins) at u >= 100 for rho=0
        section = out.split("[4]")[1].split("[5]")[0]
        assert "-0.2024" in section
        assert "WARN" not in section

    def test_strong_correlation_warns(self, run_cli):
        code, out, _ = run_cli("verify", "--config", "table1")
        assert code == 0
        section = out.split("[4]")[1].split("[5]")[0]
        assert "WARN" in section

    def test_angular_section_present(self, run_cli):
        code, out, _ = run_cli("verify", "--config", "table3")
        assert "[5]" in out and "ratio" in out

    def test_deep_weibull3_model_runs_without_nan(self, run_cli, tmp_path):
        # the sphere-coordinate margins underflowed at u = 1e4: approx and
        # table exited 1 ("invalid config") and the angular check printed
        # ratio nan
        raw = {"model": {"d": 2, "rho": 0.3,
                         "radial": {"kind": "WeibullTail", "params": [3.0]}},
               "u_list": [10, 1e4, 1e12]}
        path = tmp_path / "weibull3.json"
        path.write_text(json.dumps(raw))
        for argv in (("approx", "--u", "1e4"), ("table", "--no-mc"), ("verify",)):
            code, out, err = run_cli(*argv, "--config", str(path))
            assert code == 0, (argv, err)
            assert "nan" not in out, argv
        section = out.split("[5]")[1]
        assert section.count("PASS") == 2


class TestConfigIntegers:
    @pytest.mark.parametrize("section, key, value", [
        ("model", "d", 2.7), ("mc", "n", 65536.9), ("mc", "seed", 3.5),
        ("model", "d", "2"), ("mc", "n", math.inf), ("mc", "seed", True)])
    def test_non_integral_value_exits_1_naming_the_key(self, run_cli, tmp_path,
                                                        section, key, value):
        raw = load_config("table3").to_dict()
        raw[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli("mc", "--config", str(path), "--u", "10")
        assert code == 1
        assert out == ""
        assert f"{section}.{key} must be an integer, got {value!r}" in err

    def test_integral_floats_are_integers(self, run_cli, tmp_path):
        outs = []
        for d, n, seed in ((2, 65536, 3), (2.0, 65536.0, 3.0)):
            raw = load_config("table3").to_dict()
            raw["model"]["d"], raw["mc"]["n"], raw["mc"]["seed"] = d, n, seed
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(raw))
            cfg = load_config(str(path))
            assert (cfg.d, cfg.mc_n, cfg.mc_seed) == (2, 65536, 3)
            assert all(type(v) is int for v in (cfg.d, cfg.mc_n, cfg.mc_seed))
            code, out, _ = run_cli("mc", "--config", str(path), "--u", "10")
            assert code == 0
            outs.append([ln for ln in out.splitlines() if "elapsed" not in ln])
        assert outs[0] == outs[1]

    def test_json_exponent_notation_reads_as_an_integer(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"d": 2}, "mc": {"n": 1e6, "seed": 7}}')
        assert load_config(str(path)).mc_n == 10**6

    def test_zero_n_in_the_config_exits_1(self, run_cli, tmp_path):
        raw = load_config("table3").to_dict()
        raw["mc"]["n"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli("mc", "--config", str(path), "--u", "10")
        assert code == 1
        assert "need an integer n >= 1, got 0" in err


class TestConfigReals:
    @pytest.mark.parametrize("keys, value, bad", [
        (("model", "rho"), "0.5", "0.5"),
        (("model", "rho"), True, True),
        (("model", "gamma"), "1", "1"),
        (("model", "lambda"), ["1", "1"], "1"),
        (("model", "beta"), [1.0, False], False),
        (("u_list",), [10.0, "100"], "100"),
        (("epsilon_c",), None, None),
        (("model", "gamma"), 10**400, 10**400),
        (("model", "lambda"), [1, 10**400], 10**400),
        (("u_list",), [10, 10**400], 10**400),
    ], ids=["rho-str", "rho-bool", "gamma-str", "lambda-str", "beta-bool",
            "u-str", "epsilon-null", "gamma-1e400", "lambda-1e400", "u-1e400"])
    def test_non_real_value_exits_1_naming_the_key(self, run_cli, tmp_path,
                                                   keys, value, bad):
        # these used to run as if they were numbers (float() takes "0.5"),
        # or, past the float range, raise OverflowError out of main
        raw = load_config("table3").to_dict()
        section = raw[keys[0]] if len(keys) == 2 else raw
        section[keys[-1]] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli("approx", "--config", str(path), "--u", "10")
        assert code == 1
        assert out == ""
        assert f"{'.'.join(keys)} must be a real number, got {bad!r}" in err

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_rho_out_of_range_reports_the_rho_rule(self, run_cli, tmp_path, rho):
        raw = load_config("table3").to_dict()
        raw["model"]["rho"] = rho
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli("approx", "--config", str(path), "--u", "10")
        assert code == 1
        assert f"needs a finite rho in (-1.000, 1), got {rho!r}" in err
        assert "positive definite" not in err


@pytest.fixture()
def usage_error(capsys):
    """Exit code and output of a command line that argparse rejects."""
    def invoke(*argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    return invoke


class TestFlags:
    # each flag with a value it accepts, and the subcommands that read it
    FLAGS = {
        "--u": (["10"], {"table", "approx", "mc"}),
        "--n": (["1000"], {"table", "mc"}),
        "--seed": (["5"], {"table", "mc"}),
        "--estimator": (["crude"], {"table", "mc"}),
        "--workers": (["2"], {"table", "mc"}),
        "--variant": (["density"], {"table", "approx"}),
        "--epsilon-c": (["0.5"], {"table"}),
        "--out": (["out.csv"], {"table"}),
        "--format": (["markdown"], {"table"}),
        "--no-mc": ([], {"table"}),
    }

    @pytest.mark.parametrize("command", ["table", "approx", "mc", "verify"])
    @pytest.mark.parametrize("flag", sorted(FLAGS))
    def test_each_subcommand_takes_only_the_flags_it_reads(self, usage_error,
                                                           command, flag):
        from tailsum.cli import build_parser

        value, commands = self.FLAGS[flag]
        argv = [command, "--config", "table3", flag, *value]
        if command in commands:
            args = build_parser().parse_args(argv)
            assert args.command == command
        else:
            code, out, err = usage_error(*argv)
            assert code == 1
            assert out == ""
            assert f"unrecognized arguments: {flag}" in err

    def test_flags_override_the_config(self):
        from tailsum.cli import _apply_overrides, build_parser

        args = build_parser().parse_args(
            ["table", "--config", "table3", "--u", "10,20", "--n", "1000",
             "--seed", "5", "--estimator", "crude", "--variant", "limit",
             "--epsilon-c", "0.5", "--out", "t.md", "--format", "markdown"])
        cfg = _apply_overrides(load_config("table3"), args)
        assert (cfg.u_list, cfg.mc_n, cfg.mc_seed, cfg.mc_estimator, cfg.variant,
                cfg.epsilon_c, cfg.out_path, cfg.out_format) == (
            (10.0, 20.0), 1000, 5, "crude", "limit", 0.5, "t.md", "markdown")
        assert _apply_overrides(load_config("table3"), build_parser().parse_args(
            ["table", "--config", "table3"])) == load_config("table3")

    @pytest.mark.parametrize("argv", [
        ["mc", "--config", "table3", "--u", "10", "--estimator", "foo"],
        ["approx", "--config", "table1", "--u", "10", "--variant", "nope"],
        ["mc", "--config", "table3", "--u", "10", "--n", "1e6"],
        ["approx", "--config", "table1", "--u", "ten"],
        ["frobnicate"],
        [],
    ], ids=["bad_choice", "bad_variant", "float_n", "bad_u", "unknown_command",
            "no_command"])
    def test_usage_errors_exit_1(self, usage_error, argv):
        code, out, err = usage_error(*argv)
        assert code == 1
        assert out == ""
        assert "usage: tailsum" in err and "error:" in err

    @pytest.mark.parametrize("command", ["table", "approx", "mc", "verify"])
    def test_config_is_required(self, usage_error, command):
        # without a config there is no model to run: a usage error
        code, out, err = usage_error(command)
        assert code == 1
        assert out == ""
        assert "--config" in err

    def test_help_exits_0(self, usage_error):
        code, out, _ = usage_error("mc", "--help")
        assert code == 0
        assert "--workers" in out and "--variant" not in out

    def test_process_exit_code(self):
        # the installed entry point passes main's exit status to the shell
        import subprocess
        import sys

        proc = subprocess.run([sys.executable, "-m", "tailsum.cli", "verify",
                               "--config", "table3", "--n", "5"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "unrecognized arguments: --n 5" in proc.stderr


def test_csv_formatting_rules():
    row = DiagnosticsRow(u=10.0, asympt1=0.5, asympt2=0.0005, mc=None,
                         mc_stderr=None, ratio1=None, ratio2=None,
                         epsilon=1.0, exp_epsilon=math.exp(1.0), rho_hat=0.638,
                         log10_asympt1=math.log10(0.5), log10_asympt2=math.log10(0.0005))
    buf = io.StringIO()
    write_csv([row], buf)
    text = buf.getvalue().splitlines()
    assert text[0] == ("u,asympt1,asympt2,mc,mc_stderr,ratio1,ratio2,epsilon,exp_epsilon,"
                       "rho_hat,log10_asympt1,log10_asympt2")
    fields = text[1].split(",")
    assert fields[2].endswith("e-04")  # scientific below 1e-3
    assert fields[3] == ""

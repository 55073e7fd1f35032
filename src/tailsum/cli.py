"""Command-line front end.

Subcommands:

* ``table``  -- compute benchmark rows for the configured thresholds and
  write them as CSV (full precision) or markdown (3 significant digits).
* ``approx`` -- print the tail approximation breakdown at one threshold.
* ``mc``     -- run one Monte Carlo estimate and print it.
* ``verify`` -- probe the asymptotic-validity conditions and print the
  measured margins.

Configs are JSON files; the bundled names table1..table4 reproduce the
four reference tables and differ only in the correlation.  Exit codes:
0 success, 1 invalid config or arguments (or standard output closed
before the output was written), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from .asymptotics import (VARIANT_DENSITY, VARIANT_LIMIT, angular_reduction_check,
                          approximate)
from .diagnostics import DiagnosticsRow, McOptions, build_table
from .errors import (DomainError, InvalidParams, NoFiniteLimit,
                     NotPositiveDefinite, QuadratureError, TailsumError,
                     WrongRadialLaw)
from .model import ModelSpec, marginal_log_tail, validate_inputs
from .montecarlo import ESTIMATOR_CONDITIONAL, ESTIMATOR_CRUDE, get_estimator
from .numerics import CorrelationMatrix
from .radial import (make_radial, probe_condition_rho, probe_margin_mda_limit,
                     probe_mda_limit, probe_o_regular_variation)

_CONFIG_ERRORS = (InvalidParams, DomainError, NotPositiveDefinite,
                  WrongRadialLaw, ValueError, KeyError, TypeError,
                  json.JSONDecodeError)
_NUMERIC_ERRORS = (QuadratureError, NoFiniteLimit, FloatingPointError)

BUNDLED = ("table1", "table2", "table3", "table4")

_VARIANTS = {"density": VARIANT_DENSITY, "limit": VARIANT_LIMIT}
_ESTIMATORS = {"crude": ESTIMATOR_CRUDE, "conditional": ESTIMATOR_CONDITIONAL}


class ConfigError(InvalidParams):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; round-trips exactly through JSON."""

    d: int = 2
    lam: tuple = ()
    beta: tuple = ()
    gamma: float = 1.0
    rho: float | None = None
    sigma: tuple = ()           # row tuples; used when rho is None
    radial_kind: str = "ChiOfDim"
    radial_params: tuple = ()
    u_list: tuple = ()
    mc_estimator: str = "conditional"
    mc_n: int = 10**6
    mc_seed: int = 1234567
    variant: str = "density"
    epsilon_c: float = 1.0
    out_format: str = "csv"
    out_path: str | None = None

    def __post_init__(self):
        lam = self.lam or tuple(1.0 for _ in range(self.d))
        beta = self.beta or tuple(1.0 for _ in range(self.d))
        object.__setattr__(self, "lam", tuple(float(v) for v in lam))
        object.__setattr__(self, "beta", tuple(float(v) for v in beta))
        object.__setattr__(self, "sigma", tuple(tuple(float(v) for v in row)
                                                for row in self.sigma))
        object.__setattr__(self, "u_list", tuple(float(u) for u in self.u_list))
        radial = self.radial_params or ((self.d,) if self.radial_kind == "ChiOfDim" else ())
        object.__setattr__(self, "radial_params", tuple(radial))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        model = dict(raw.get("model", {}))
        mc = dict(raw.get("mc", {}))
        output = dict(raw.get("output", {}))
        radial = dict(model.get("radial", {}))
        return cls(
            d=_config_int(model.get("d", 2), "model.d"),
            lam=tuple(model.get("lambda", ())),
            beta=tuple(model.get("beta", ())),
            gamma=float(model.get("gamma", 1.0)),
            rho=None if model.get("rho") is None else float(model["rho"]),
            sigma=tuple(tuple(r) for r in model.get("sigma", ())),
            radial_kind=radial.get("kind", "ChiOfDim"),
            radial_params=tuple(radial.get("params", ())),
            u_list=tuple(raw.get("u_list", ())),
            mc_estimator=mc.get("estimator", "conditional"),
            mc_n=_config_int(mc.get("n", 10**6), "mc.n"),
            mc_seed=_config_int(mc.get("seed", 1234567), "mc.seed"),
            variant=raw.get("variant", "density"),
            epsilon_c=float(raw.get("epsilon_c", 1.0)),
            out_format=output.get("format", "csv"),
            out_path=output.get("path"),
        )

    def to_dict(self) -> dict:
        model: dict = {"d": self.d, "lambda": list(self.lam),
                       "beta": list(self.beta), "gamma": self.gamma,
                       "radial": {"kind": self.radial_kind,
                                  "params": list(self.radial_params)}}
        if self.rho is not None:
            model["rho"] = self.rho
        else:
            model["sigma"] = [list(r) for r in self.sigma]
        return {
            "model": model,
            "u_list": list(self.u_list),
            "mc": {"estimator": self.mc_estimator, "n": self.mc_n,
                   "seed": self.mc_seed},
            "variant": self.variant,
            "epsilon_c": self.epsilon_c,
            "output": {"format": self.out_format, "path": self.out_path},
        }

    def sigma_entries(self):
        if self.rho is not None:
            m = np.full((self.d, self.d), self.rho)
            np.fill_diagonal(m, 1.0)
            return m
        return np.asarray(self.sigma, dtype=float)

    def build_model(self) -> ModelSpec:
        violations = validate_inputs(self.d, self.lam, self.beta, self.gamma,
                                     self.sigma_entries())
        if violations:
            raise ConfigError("invalid model config: " + "; ".join(violations))
        radial = make_radial(self.radial_kind, *self.radial_params)
        return ModelSpec(d=self.d, lam=list(self.lam), beta=list(self.beta),
                         gamma=self.gamma,
                         sigma=CorrelationMatrix(self.sigma_entries()),
                         radial=radial)

    def mc_options(self, workers: int | None = None) -> McOptions:
        if self.mc_estimator not in _ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.mc_estimator!r}")
        return McOptions(estimator=_ESTIMATORS[self.mc_estimator], n=self.mc_n,
                         seed=self.mc_seed, workers=workers)


def _config_int(value, key: str) -> int:
    """An integer entry; integral floats count (JSON may write 1e6)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not hasattr(type(value), "__index__"):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def load_config(name_or_path: str) -> RunConfig:
    """Load a config from a file path or a bundled name (table1..table4);
    ConfigError if the file cannot be read."""
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {name_or_path!r}: "
                              f"{exc}") from exc
    elif name_or_path in BUNDLED:
        text = resources.files("tailsum").joinpath(
            f"configs/{name_or_path}.json").read_text(encoding="utf-8")
        raw = json.loads(text)
    else:
        raise ConfigError(f"config {name_or_path!r} is neither a file nor a "
                          f"bundled name {BUNDLED}")
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def full_precision(x) -> str:
    """17 significant digits; scientific notation below 1e-3; '' for None."""
    if x is None:
        return ""
    if x != x:  # NaN
        return "nan"
    if x != 0.0 and abs(x) < 1e-3:
        return f"{x:.16e}"
    return f"{x:.17g}"


def sig3(x) -> str:
    if x is None:
        return ""
    return f"{x:.3g}"


def write_csv(rows: list[DiagnosticsRow], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(DiagnosticsRow.FIELDS)
    for row in rows:
        writer.writerow([full_precision(getattr(row, f))
                         for f in DiagnosticsRow.FIELDS])


def read_csv(stream) -> list[DiagnosticsRow]:
    reader = csv.reader(stream)
    header = next(reader)
    if tuple(header) != DiagnosticsRow.FIELDS:
        raise ConfigError(f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        vals = [None if v == "" else float(v) for v in rec]
        rows.append(DiagnosticsRow(**dict(zip(DiagnosticsRow.FIELDS, vals))))
    return rows


def write_markdown(rows: list[DiagnosticsRow], stream) -> None:
    cols = DiagnosticsRow.FIELDS
    stream.write("| " + " | ".join(cols) + " |\n")
    stream.write("|" + "|".join(["---"] * len(cols)) + "|\n")
    for row in rows:
        stream.write("| " + " | ".join(sig3(getattr(row, f)) for f in cols)
                     + " |\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_table(cfg: RunConfig, args) -> int:
    spec = cfg.build_model()
    if not cfg.u_list:
        raise ConfigError("u_list is empty; nothing to tabulate")
    if cfg.variant not in _VARIANTS:
        raise ConfigError(f"table needs variant 'limit' or 'density', "
                          f"got {cfg.variant!r}")
    mc_opts = None if args.no_mc else cfg.mc_options(args.workers)
    rows = build_table(spec, cfg.u_list, mc_opts, c=cfg.epsilon_c,
                       variant=_VARIANTS[cfg.variant])
    writer = write_csv if cfg.out_format == "csv" else write_markdown
    if cfg.out_path:
        try:
            fh = open(cfg.out_path, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out_path!r}: {exc}") from exc
        with fh:
            writer(rows, fh)
        print(f"wrote {len(rows)} rows to {cfg.out_path} ({cfg.out_format})")
    else:
        writer(rows, sys.stdout)
    return 0


def cmd_approx(cfg: RunConfig, args) -> int:
    spec = cfg.build_model()
    if args.u is None or len(args.u) != 1:
        raise ConfigError("approx needs exactly one threshold via --u")
    u = args.u[0]
    variants = ([VARIANT_LIMIT, VARIANT_DENSITY] if cfg.variant == "both"
                else [_VARIANTS[cfg.variant]])
    for variant in variants:
        apx = approximate(spec, u, variant)
        print(f"variant        {apx.variant}")
        print(f"u              {full_precision(apx.u)}")
        print(f"first_order    {full_precision(apx.first_order)}"
              f"   (log10 {apx.log_first_order / math.log(10):.6f})")
        for j in range(spec.d):
            for i in range(spec.d):
                if i != j and apx.pair_terms[j, i] > 0:
                    print(f"pair ({j + 1},{i + 1})     "
                          f"{full_precision(apx.pair_terms[j, i])}")
        log10c = (apx.log_correction / math.log(10)
                  if apx.correction > 0 else float("-inf"))
        print(f"correction     {full_precision(apx.correction)}"
              f"   (log10 {log10c:.6f})")
        print(f"second_order   {full_precision(apx.second_order)}"
              f"   (log10 {apx.log_second_order / math.log(10):.6f})")
    return 0


def cmd_mc(cfg: RunConfig, args) -> int:
    spec = cfg.build_model()
    if args.u is None or len(args.u) != 1:
        raise ConfigError("mc needs exactly one threshold via --u")
    u = args.u[0]
    opts = cfg.mc_options(args.workers)
    run = get_estimator(opts.estimator)
    est = run(spec, u, opts.n, opts.seed, workers=opts.workers)
    print(f"estimator  {est.estimator}")
    print(f"u          {full_precision(u)}")
    print(f"value      {full_precision(est.value)}")
    print(f"stderr     {full_precision(est.stderr)}")
    print(f"n          {est.n}")
    print(f"seed       {est.seed}")
    print(f"elapsed    {est.elapsed:.3f} s")
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    spec = cfg.build_model()
    bundle = spec.scaling_bundle()
    law = spec.radial
    print(f"model: d={spec.d}, radial={law!r}")

    print("\n[1] radial Gumbel-MDA probe: tail(r+x*b(r))/tail(r) vs exp(-x)")
    for r0 in (8.0, 32.0):
        rows = probe_mda_limit(law, [r0], [-2.0, -1.0, 0.0, 1.0, 2.0])
        worst = max(r.rel_error for r in rows)
        detail = "  ".join(f"x={r.x:+.0f}: {r.ratio:.4f}/{r.target:.4f}"
                           for r in rows)
        print(f"  r={r0:g}  {detail}  max rel err {worst:.4f} "
              f"{'PASS' if worst < 0.15 else 'WARN'} (threshold 0.15)")

    print("\n[2] margin MDA probe: P(X>u+x*e*(u))/P(X>u) vs exp(-x) (margin 1)")
    for u in (1e4, 1e8):
        rows = probe_margin_mda_limit(
            bundle, 0, [u], [-2.0, -1.0, 0.0, 1.0, 2.0],
            lambda t: marginal_log_tail(spec, 0, t))
        worst = max(r.rel_error for r in rows)
        print(f"  u={u:.0e}  max rel err {worst:.4f} "
              f"{'PASS' if worst < 0.15 else 'WARN'} (threshold 0.15)")

    print("\n[3] O-regular-variation probe: |e(1.01u)/e(u) - 1| over u grid")
    grid = [10.0**k for k in range(3, 10)]
    devs = probe_o_regular_variation(law, grid)
    worst = max(devs)
    print(f"  max deviation {worst:.5f} "
          f"{'PASS' if worst <= 0.02 else 'WARN'} (threshold 0.02)")

    if spec.d >= 2:
        print("\n[4] pairwise correlation condition margins (c=1, eps=1; "
              "negative margin = condition holds)")
        for u in (1e2, 1e4, 1e8):
            rows = probe_condition_rho(spec.sigma.entries, bundle, u)
            worst = max(r.margin for r in rows)
            detail = "  ".join(f"({r.j + 1},{r.i + 1}): {r.margin:+.4f}"
                               for r in rows[:6])
            print(f"  u={u:.0e}  {detail}  worst {worst:+.4f} "
                  f"{'PASS' if worst < 0 else 'WARN'}")

    if spec.d >= 2:
        print("\n[5] sphere-coordinate reduction: integral vs asymptotic "
              "(margin 1)")
        for u in (1e4, 1e8):
            chk = angular_reduction_check(law, spec.lam[0], spec.beta[0],
                                          spec.gamma, spec.d, u)
            print(f"  u={u:.0e}  integral {chk.integral:.6e}  "
                  f"asymptotic {chk.asymptotic:.6e}  ratio {chk.ratio:.4f} "
                  f"{'PASS' if 0.85 <= chk.ratio <= 1.15 else 'WARN'} "
                  f"(band [0.85, 1.15])")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_u_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# (flag, the subcommands that read it, its argparse settings); a dest
# naming a RunConfig field overrides that field of the config
_FLAGS = (
    ("--u", "table approx mc", dict(type=_parse_u_list,
                                    help="threshold(s), comma separated")),
    ("--n", "table mc", dict(type=int, dest="mc_n", help="MC sample count")),
    ("--seed", "table mc", dict(type=int, dest="mc_seed", help="MC seed")),
    ("--estimator", "table mc", dict(choices=("crude", "conditional"),
                                     dest="mc_estimator")),
    ("--workers", "table mc", dict(type=int, help="worker threads (default "
                                   "TAILSUM_THREADS or 1; never changes results)")),
    ("--variant", "table approx", dict(choices=("limit", "density", "both"))),
    ("--epsilon-c", "table", dict(type=float,
                                  help="slack constant of the epsilon measure")),
    ("--out", "table", dict(dest="out_path", help="output file path")),
    ("--format", "table", dict(choices=("csv", "markdown"), dest="out_format")),
    ("--no-mc", "table", dict(action="store_true", help="skip the Monte Carlo column")),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an invalid argument: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tailsum",
        description="Tail asymptotics and rare-event Monte Carlo for sums "
                    "of dependent log-elliptical risks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("table", cmd_table), ("approx", cmd_approx),
                     ("mc", cmd_mc), ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None,
                       help="config file path or bundled name "
                            "(table1..table4)")
        for flag, commands, settings in _FLAGS:
            if name in commands.split():
                p.add_argument(flag, **settings)
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    updates = {k: v for k, v in vars(args).items() if k in names and v is not None}
    if args.command == "table" and args.u is not None:
        updates["u_list"] = tuple(args.u)
    return replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _apply_overrides(cfg, args)
        code = args.fn(cfg, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``tailsum table | head -1``): as the signal
        # module's documentation advises, point stdout at devnull so that
        # the flush at exit raises nothing either, and print no message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except _CONFIG_ERRORS as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except TailsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

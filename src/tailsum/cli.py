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
0 success, 1 invalid config or arguments, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources

from .asymptotics import (VARIANT_DENSITY, VARIANT_LIMIT, angular_reduction_check,
                          approximate)
from .diagnostics import DiagnosticsRow, McOptions, build_table
from .errors import (DomainError, InvalidParams, NoFiniteLimit,
                     NotPositiveDefinite, QuadratureError, TailsumError,
                     WrongRadialLaw)
from .model import ModelSpec, validate_inputs
from .montecarlo import ESTIMATOR_CONDITIONAL, ESTIMATOR_CRUDE, get_estimator
from .numerics import CorrelationMatrix, equicorrelation
from .radial import (make_radial, probe_condition_rho, probe_margin_mda_limit,
                     probe_mda_limit, probe_o_regular_variation)

_CONFIG_ERRORS = (InvalidParams, DomainError, NotPositiveDefinite,
                  WrongRadialLaw, ValueError, KeyError, TypeError, OSError,
                  json.JSONDecodeError)
_NUMERIC_ERRORS = (QuadratureError, NoFiniteLimit, FloatingPointError)

BUNDLED = ("table1", "table2", "table3", "table4")

_VARIANTS = {"density": VARIANT_DENSITY, "limit": VARIANT_LIMIT}


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
        d = int(model.get("d", 2))
        return cls(
            d=d,
            lam=tuple(model.get("lambda", ())),
            beta=tuple(model.get("beta", ())),
            gamma=float(model.get("gamma", 1.0)),
            rho=None if model.get("rho") is None else float(model["rho"]),
            sigma=tuple(tuple(r) for r in model.get("sigma", ())),
            radial_kind=radial.get("kind", "ChiOfDim"),
            radial_params=tuple(radial.get("params", ())),
            u_list=tuple(raw.get("u_list", ())),
            mc_estimator=mc.get("estimator", "conditional"),
            mc_n=int(mc.get("n", 10**6)),
            mc_seed=int(mc.get("seed", 1234567)),
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
        import numpy as np

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
        if self.rho is not None:
            sigma = equicorrelation(self.d, self.rho)
        else:
            sigma = CorrelationMatrix(self.sigma_entries())
        radial = make_radial(self.radial_kind, *self.radial_params)
        return ModelSpec(d=self.d, lam=list(self.lam), beta=list(self.beta),
                         gamma=self.gamma, sigma=sigma, radial=radial)

    def mc_options(self, workers: int | None = None) -> McOptions:
        if self.mc_n < 1:
            raise ConfigError(f"mc.n must be >= 1, got {self.mc_n}")
        if self.mc_estimator not in ("crude", "conditional"):
            raise ConfigError(f"unknown estimator {self.mc_estimator!r}")
        estimator = (ESTIMATOR_CRUDE if self.mc_estimator == "crude"
                     else ESTIMATOR_CONDITIONAL)
        return McOptions(estimator=estimator, n=self.mc_n, seed=self.mc_seed,
                         workers=workers)


def load_config(name_or_path: str) -> RunConfig:
    """Load a config from a file path or a bundled name (table1..table4)."""
    import os

    if os.path.exists(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
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
    out_path = args.out or cfg.out_path
    fmt = args.format or cfg.out_format
    writer = write_csv if fmt == "csv" else write_markdown
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            writer(rows, fh)
        print(f"wrote {len(rows)} rows to {out_path} ({fmt})")
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
    from .model import marginal_log_tail

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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--u", type=_parse_u_list, default=None,
                       help="threshold(s), comma separated")
        p.add_argument("--n", type=int, default=None, help="MC sample count")
        p.add_argument("--seed", type=int, default=None, help="MC seed")
        p.add_argument("--estimator", choices=("crude", "conditional"),
                       default=None)
        p.add_argument("--variant", choices=("limit", "density", "both"),
                       default=None)
        p.add_argument("--epsilon-c", type=float, default=None,
                       help="slack constant of the epsilon measure")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "markdown"), default=None)
        p.add_argument("--no-mc", action="store_true",
                       help="skip the Monte Carlo column")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads (default TAILSUM_THREADS or 1; "
                            "never changes results)")
    return parser


def _parse_u_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {}
    if args.u is not None and args.command == "table":
        updates["u_list"] = tuple(args.u)
    if args.n is not None:
        updates["mc_n"] = args.n
    if args.seed is not None:
        updates["mc_seed"] = args.seed
    if args.estimator is not None:
        updates["mc_estimator"] = args.estimator
    if args.variant is not None:
        updates["variant"] = args.variant
    if args.epsilon_c is not None:
        updates["epsilon_c"] = args.epsilon_c
    return replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _apply_overrides(cfg, args)
        return args.fn(cfg, args)
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

"""Command-line front end: identity batteries, operator checks, chains.

Exit codes: 0 all checks passed, 1 at least one identity failed, 2 bad
usage or configuration.  All randomness flows from --seed; reports embed
the seed, the package version and a hash of the effective configuration,
and are byte-identical across runs with the same seed.  The default
output directory is $GRADEDHS_OUTDIR (falling back to the working
directory).
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .gradedcore import DENSE_SITE_CAP, GradedDim, commutator_norm
from .qmrops import (
    FactorStore,
    SiteConfig,
    commutator_eval,
    f_identity_eta_spread,
    f_identity_residual,
    random_test_function,
)
from .rmatrix import _LATTICE_MARGIN, PoleError, RFamily, RMatrixSpec, _dist_to_int
from . import chain as chain_mod
from .report import config_digest, report_json
from .verify import DEFAULT_DIMS, DEFAULT_HBAR, DEFAULT_TOLERANCES, run_battery


class ConfigError(ValueError):
    """Invalid command-line configuration."""


@dataclass
class RunConfig:
    """Parsed command configuration; round-trips through to_dict."""

    command: str
    family: str = "all"
    dims: tuple = DEFAULT_DIMS
    length: int = 3
    hbar: complex = DEFAULT_HBAR
    eta: complex = 0.17 + 0.05j
    seed: int = 7
    samples: int = 100
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    orders: tuple = ()
    check: str = "all"
    with_spectrum: bool = False
    limit: str | None = None
    dump_matrix: bool = False

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["hbar"] = [self.hbar.real, self.hbar.imag]
        doc["eta"] = [self.eta.real, self.eta.imag]
        doc["dims"] = [list(nm) for nm in self.dims]
        doc["orders"] = list(self.orders)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        doc = dict(doc)
        doc["hbar"] = complex(doc["hbar"][0], doc["hbar"][1])
        doc["eta"] = complex(doc["eta"][0], doc["eta"][1])
        doc["dims"] = tuple(tuple(nm) for nm in doc["dims"])
        doc["orders"] = tuple(doc["orders"])
        return cls(**doc)

    def config_hash(self) -> str:
        return config_digest(self.to_dict())


#: the default gradings of ``chain``: (1|0) has a one-dimensional chain space
CHAIN_DIMS = tuple(nm for nm in DEFAULT_DIMS if sum(nm) >= 2)


def _parse_nm(values: list[str] | None) -> tuple:
    if not values:
        return DEFAULT_DIMS
    dims = []
    for val in values:
        try:
            n, m = (int(part) for part in val.split(","))
        except ValueError as exc:
            raise ConfigError(f"--nm expects 'N,M', got {val!r}") from exc
        if n < 0 or m < 0 or n + m < 1:
            raise ConfigError(f"invalid graded dimension N={n}, M={m}")
        dims.append((n, m))
    return tuple(dims)


def _parse_complex(text: str, flag: str) -> complex:
    try:
        value = complex(text)
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a complex number, got {text!r}") from exc
    if not cmath.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {text!r}")
    return value


#: the gates that ``--tolerance`` may set, per command, with their defaults
GATES = {
    "verify": DEFAULT_TOLERANCES,
    "ops": {"f_identity": 1e-10, "commute": 1e-9},
    "chain": {"commute": 1e-10},
}


def _parse_tolerances(values: list[str] | None, command: str) -> dict:
    """The gates the user set, as given: a name of the command's gates and
    a value with 0 < value < inf each."""
    gates = GATES[command]
    out = {}
    for val in values or []:
        if "=" not in val:
            raise ConfigError(f"--tolerance expects NAME=VALUE, got {val!r}")
        name, raw = val.split("=", 1)
        if name not in gates:
            raise ConfigError(
                f"--tolerance {name!r} is not a gate of {command}; valid gates: "
                f"{', '.join(gates)}"
            )
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not 0.0 < value < math.inf:
            raise ConfigError(
                f"--tolerance {name} needs a number with 0 < value < inf, got {raw!r}"
            )
        out[name] = value
    return out


def _families(cfg: RunConfig) -> list[RFamily]:
    if cfg.family == "all":
        return [RFamily.UQ_GLNM, RFamily.ZN_GRADED]
    if cfg.family == "uq":
        return [RFamily.UQ_GLNM]
    if cfg.family == "zn":
        return [RFamily.ZN_GRADED]
    raise ConfigError(f"unknown family {cfg.family!r}")


def _report_name(cfg: RunConfig) -> str:
    return f"{cfg.command}_report.json"


def _out_dir(cfg: RunConfig, files: Sequence[str] = ()) -> Path:
    """The output directory, made if missing, in which the report and
    ``files`` can be written: none of them may exist as anything but a
    regular file.  Each command resolves it before any computation, so an
    unusable path costs no work."""
    path = Path(cfg.out or os.environ.get("GRADEDHS_OUTDIR", "."))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {str(path)!r} is unusable: {exc.strerror}") from exc
    for name in (_report_name(cfg), *files):
        target = path / name
        if target.exists() and not target.is_file():
            raise ConfigError(f"output path {str(target)!r} exists and is not a regular file")
    return path


def _write_report(cfg: RunConfig, out: Path, rows: list) -> None:
    """Write the rows with the configuration, its hash and the version."""
    doc = {
        "command": cfg.command,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "results": rows,
    }
    path = out / _report_name(cfg)
    path.write_text(report_json(doc), encoding="utf-8")
    print(f"# report written to {path}")


def _specs(cfg: RunConfig) -> list[RMatrixSpec]:
    try:
        return [
            RMatrixSpec(fam, GradedDim(n, m), cfg.hbar)
            for fam in _families(cfg)
            for (n, m) in cfg.dims
        ]
    except (PoleError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    specs = _specs(cfg)
    path = _out_dir(cfg) / _report_name(cfg)
    report = run_battery(
        specs, seed=cfg.seed, samples=cfg.samples, tolerances=cfg.tolerances
    )
    report.save(path)
    for res in report.results:
        print(
            f"{res.verdict.upper():5s} {res.check:24s} {res.family}({res.n_even}|{res.n_odd}) "
            f"max_residual={res.max_residual:.3e} tol={res.tolerance:.1e}"
        )
    status = "all checks passed" if report.passed() else "FAILURES present"
    print(f"# {status}; report written to {path} ({report.wall_time:.1f}s)")
    return 0 if report.passed() else 1


#: multiples of eta, beside eta itself, at which ``ops`` assembles the
#: four-block identities again (their defect does not depend on eta)
ETA_SPREAD = tuple(1 + 0.2 * t for t in range(1, 5))


def _spread_etas(eta: complex) -> list[complex]:
    return [eta * s for s in ETA_SPREAD]


def _draw_positions(length: int, eta: complex, hbar: complex, rng) -> SiteConfig:
    """Random positions off the pole lattice for every shift ``ops`` uses:
    two eta-steps at eta (commutators) and one step at each spread eta."""
    for _ in range(200):
        z = tuple(
            complex(rng.uniform(0, 1), rng.uniform(0.1, 0.4)) for _ in range(length)
        )
        try:
            site = SiteConfig(length, z, eta, hbar)
            site.validate_shifts(2)
            for spread_eta in _spread_etas(eta):
                SiteConfig(length, z, spread_eta, hbar)
        except ValueError:
            continue
        return site
    raise ConfigError("could not draw a site configuration off the pole lattice")


def _draw_case(cfg: RunConfig, spec: RMatrixSpec, pairs: list, rng) -> tuple:
    """Positions, then the probe functions of each order pair, in draw order."""
    site = _draw_positions(cfg.length, cfg.eta, cfg.hbar, rng)
    probes = min(cfg.samples, 10)
    fs = [
        [random_test_function(cfg.length, rng, dim=spec.dim) for _ in range(probes)]
        for _ in pairs
    ]
    return site, fs


def _ops_plan(cfg: RunConfig) -> tuple[tuple, list]:
    """Orders of the four-block identities and order pairs of the commutators."""
    # the probes have integer frequencies: an integer shift leaves them as
    # they are, and every commutator would pass without checking anything
    if not _dist_to_int(cfg.eta) > _LATTICE_MARGIN:
        raise ConfigError(
            f"--eta {cfg.eta:g} is within {_LATTICE_MARGIN:g} of an integer, where the "
            f"shifts leave the integer-frequency probes unchanged; give a non-integer --eta"
        )
    # order L checks nothing: D_L is a pure total shift, whose four-block
    # products are empty and which commutes with every D_k for any R
    orders = cfg.orders or tuple(range(1, cfg.length))
    bad = [k for k in orders if not 1 <= k < cfg.length]
    if bad:
        raise ConfigError(f"operator orders {bad} out of range 1..{cfg.length - 1}")
    if len(set(orders)) != len(orders):
        raise ConfigError(f"--k repeats an operator order: {list(orders)}")
    identities = orders if cfg.check in ("f-identity", "all") else ()
    pairs = []
    if cfg.check in ("commute", "all"):
        pairs = [(k, l) for k in orders for l in orders if l > k]
    if not identities and not pairs:
        raise ConfigError(
            f"--check {cfg.check} with orders {list(orders)} leaves nothing to check"
        )
    return identities, pairs


def _ops_rows(cfg: RunConfig, spec: RMatrixSpec, site: SiteConfig, identities, pairs, probes):
    rows = []
    # one store serves every order, every spread eta and the commutator probes
    store = FactorStore(spec, site)
    for k in identities:
        res = f_identity_residual(spec, site, k, store=store)
        spread = f_identity_eta_spread(spec, site, k, _spread_etas(cfg.eta), store=store)
        spread = max(res, spread)  # the residual is the value at eta itself
        tol = cfg.tolerances.get("f_identity", GATES["ops"]["f_identity"])
        rows.append(
            {
                "check": "f_identity",
                "spec": str(spec),
                "k": k,
                "residual": res,
                "eta_spread": spread,
                "tolerance": tol,
                "verdict": "pass" if spread <= tol else "fail",
            }
        )
    for (k, l), fs in zip(pairs, probes):
        worst = commutator_eval(spec, site, k, l, fs, store=store)
        tol = cfg.tolerances.get("commute", GATES["ops"]["commute"])
        rows.append(
            {
                "check": "commute",
                "spec": str(spec),
                "k": k,
                "l": l,
                "residual": worst,
                "tolerance": tol,
                "verdict": "pass" if worst <= tol else "fail",
            }
        )
    return rows


def cmd_ops(cfg: RunConfig) -> int:
    specs = _specs(cfg)
    identities, pairs = _ops_plan(cfg)
    # the four-block products are n^L x n^L arrays, several of them at once
    for spec in specs if identities else ():
        if spec.dim.n ** cfg.length > DENSE_SITE_CAP:
            raise ConfigError(
                f"{spec}: the f-identity at dimension {spec.dim.n ** cfg.length} exceeds the "
                f"dense cap {DENSE_SITE_CAP}; use --check commute or a smaller --L"
            )
    out = _out_dir(cfg)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for spec in specs:
        site, probes = _draw_case(cfg, spec, pairs, rng)
        try:
            rows += _ops_rows(cfg, spec, site, identities, pairs, probes)
        except ValueError as exc:  # PoleError included
            raise ConfigError(f"{spec}: {exc}") from exc
    for row in rows:
        label = f"k={row['k']}" + (f",l={row['l']}" if "l" in row else "")
        print(
            f"{row['verdict'].upper():5s} {row['check']:12s} {row['spec']} {label} "
            f"residual={row['residual']:.3e}"
        )
    _write_report(cfg, out, rows)
    return 0 if all(row["verdict"] == "pass" for row in rows) else 1


#: smallest distance of hbar * L from the integers that ``chain`` accepts;
#: at hbar * L in Z some x_i - x_j + hbar of the equilibrium lies on a pole
HBAR_L_MARGIN = 1e-6


def _check_chain_poles(hbar: complex, length: int) -> None:
    scaled = hbar * length
    if not _dist_to_int(scaled) >= HBAR_L_MARGIN:
        raise ConfigError(
            f"hbar * L = {scaled:g} is within {HBAR_L_MARGIN:g} of an integer: some "
            f"x_i - x_j + hbar of the L = {length} equilibrium sits on a pole"
        )


def _chain_files(cfg: RunConfig, spec: RMatrixSpec) -> dict:
    """The files ``chain`` writes for one spec besides the report, by the
    report row key that names each."""
    tag = f"{spec.family.value}_{spec.dim.n_even}_{spec.dim.n_odd}_L{cfg.length}"
    files = {}
    if cfg.with_spectrum:
        files.update({f"spectrum_{name}": f"spectrum_{name}_{tag}.csv" for name in ("h1", "h2")})
    if cfg.dump_matrix:
        files["h1_dump"] = f"h1_{tag}.bin"
    return files


def cmd_chain(cfg: RunConfig) -> int:
    if cfg.family == "all":
        raise ConfigError("the chain command needs a single --family (uq or zn)")
    specs = _specs(cfg)
    # a commutator that is zero by construction checks nothing
    if cfg.length == 2:
        raise ConfigError(
            "H2 has no terms at L = 2, so [H1,H2] = 0 checks nothing; use --L 3 or more"
        )
    targets = []
    for spec in specs:
        if spec.dim.n == 1:
            raise ConfigError(
                f"the {spec.dim} chain space has dimension 1 at every L, so [H1,H2] = 0 "
                f"checks nothing; give --nm with N + M >= 2"
            )
        dim_total = spec.dim.n ** cfg.length
        if dim_total > DENSE_SITE_CAP:
            raise ConfigError(
                f"chain dimension {dim_total} exceeds the dense cap {DENSE_SITE_CAP}"
            )
        try:
            targets.append(chain_mod.limit_target(spec, cfg.length, cfg.limit) if cfg.limit else None)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    _check_chain_poles(cfg.hbar, cfg.length)
    files = [_chain_files(cfg, spec) for spec in specs]
    out = _out_dir(cfg, [name for names in files for name in names.values()])
    rows = []
    ok = True
    for spec, target, names in zip(specs, targets, files):
        h1 = chain_mod.hamiltonian_h1(spec, cfg.length)
        h2 = chain_mod.hamiltonian_h2(spec, cfg.length)
        comm = commutator_norm(h1, h2)
        tol = cfg.tolerances.get("commute", GATES["chain"]["commute"])
        verdict = "pass" if comm <= tol else "fail"
        ok &= verdict == "pass"
        dropped = chain_mod.htilde1_constant(spec, cfg.length)
        row = {
            "spec": str(spec),
            "L": cfg.length,
            "h1_h2_commutator": comm,
            "tolerance": tol,
            "verdict": verdict,
            "dropped_h1_constant": [dropped.real, dropped.imag],
        }
        if cfg.with_spectrum:
            for name, op in (("h1", h1), ("h2", h2)):
                result = chain_mod.spectrum(op)
                csv_path = out / names[f"spectrum_{name}"]
                chain_mod.spectrum_to_csv(result, csv_path)
                row[f"spectrum_{name}"] = str(csv_path)
        if target is not None:
            # the limit's blocks and the target's are over the same sectors, in content order
            limit = chain_mod.nonrelativistic_limit_h1(spec, cfg.length)
            dev = max(float(np.max(np.abs(lim - tgt)))
                      for (_, lim), (_, tgt) in zip(limit, target.blocks(), strict=True))
            row["limit_max_deviation"] = dev
            row["limit_verdict"] = "pass" if dev <= 1e-5 else "fail"
            ok &= row["limit_verdict"] == "pass"
        if cfg.dump_matrix:
            bin_path = out / names["h1_dump"]
            chain_mod.save_operator_binary(h1, spec, bin_path)
            row["h1_dump"] = str(bin_path)
        rows.append(row)
        print(
            f"{verdict.upper():5s} chain {row['spec']} L={cfg.length} "
            f"[H1,H2]={comm:.3e}"
        )
    _write_report(cfg, out, rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedhs",
        description="graded R-matrix identity batteries and long-range spin chains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nm", action="append", metavar="N,M", help="graded dimension, repeatable")
        p.add_argument("--hbar", default=None, help="deformation parameter (complex)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--tolerance", action="append", metavar="NAME=VAL")
        p.add_argument("--out", default=None, help="output directory")

    pv = sub.add_parser("verify", help="run the identity battery")
    common(pv)
    pv.add_argument("--family", choices=("uq", "zn", "all"), default="all")

    po = sub.add_parser("ops", help="difference-operator identity checks")
    common(po)
    po.add_argument("--family", choices=("uq", "zn", "all"), default="all")
    po.add_argument("--L", type=int, default=3)
    po.add_argument("--k", default=None, help="comma-separated operator orders")
    po.add_argument("--eta", default=None, help="shift step (complex)")
    po.add_argument("--check", choices=("f-identity", "commute", "all"), default="all")

    pc = sub.add_parser("chain", help="build chain Hamiltonians and spectra")
    common(pc)
    pc.add_argument("--family", choices=("uq", "zn", "all"), default="uq")
    pc.add_argument("--L", type=int, default=3)
    pc.add_argument("--spectrum", action="store_true", dest="with_spectrum")
    pc.add_argument("--limit", choices=("hs", "aniso"), default=None)
    pc.add_argument("--dump-matrix", action="store_true")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    hbar = DEFAULT_HBAR if args.command == "verify" else chain_mod.DEFAULT_HBAR
    if args.hbar is not None:
        hbar = _parse_complex(args.hbar, "--hbar")
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    cfg = RunConfig(
        command=args.command,
        dims=CHAIN_DIMS if args.command == "chain" and not args.nm else _parse_nm(args.nm),
        hbar=hbar,
        seed=args.seed,
        samples=args.samples,
        tolerances=_parse_tolerances(args.tolerance, args.command),
        out=args.out,
    )
    cfg.family = getattr(args, "family", "all")
    if hasattr(args, "L"):
        if args.L < 2:
            raise ConfigError("--L must be at least 2")
        cfg.length = args.L
    if getattr(args, "eta", None) is not None:
        cfg.eta = _parse_complex(args.eta, "--eta")
    if getattr(args, "k", None):
        try:
            cfg.orders = tuple(int(v) for v in args.k.split(","))
        except ValueError as exc:
            raise ConfigError(f"--k expects integers, got {args.k!r}") from exc
    cfg.check = getattr(args, "check", "all")
    cfg.with_spectrum = getattr(args, "with_spectrum", False)
    cfg.limit = getattr(args, "limit", None)
    cfg.dump_matrix = getattr(args, "dump_matrix", False)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "ops":
            return cmd_ops(cfg)
        return cmd_chain(cfg)
    except (ConfigError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

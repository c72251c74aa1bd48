"""The four workloads: what each runs, how its inputs come from the seed,
and how its outputs are checked.

A pass is one whole round of a workload's operations.  Every pass of a
run repeats the same operations on the same inputs, so the share of
failed operations is the same in every run.  Checks never compare with
stored outputs: they use the closed forms in ``oracles`` and properties
the method must have.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from common import import_program

#: the program's own default gate for the commutator probes
COMMUTE_TOL = 1e-9
#: [H1, H2] gate of the chain command
CHAIN_COMMUTE_TOL = 1e-10
#: sanity bound on the limit deviation; the program's own 1e-5 gate is
#: counted as a failed operation instead (see the README, fault (a))
LIMIT_SANITY = 1e-3


def seed_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per workload, so workloads do not share draws."""
    return np.random.default_rng([seed, sum(map(ord, stream))])


def program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


@dataclass
class Outcome:
    """Operations attempted and failed, and check failures, of one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _verdict_exit(outcome: Outcome, code: int, failed_verdicts: int, label: str) -> None:
    expected = 1 if failed_verdicts else 0
    if code != expected:
        outcome.problems.append(f"{label}: exit code {code}, verdicts imply {expected}")


# ---------------------------------------------------------------------------
# command-line workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """A workload made of gradedhs commands, each run in a fresh process."""

    name = ""
    min_passes = 1
    report = ""

    def commands(self) -> list[tuple[str, list[str]]]:
        """(label, gradedhs arguments) per command; ``--out`` is added."""
        raise NotImplementedError

    def check(self, label: str, outdir: Path, code: int) -> Outcome:
        raise NotImplementedError

    def run_problems(self) -> list[str]:
        """Checks made once per run, apart from the commands."""
        return []

    def notes(self) -> list[str]:
        return []


class VerifyWorkload(CliWorkload):
    """The default battery: both families, the 7 default graded dimensions,
    100 samples.  The battery runs twice per run at least, so the report
    bytes of two runs with the same seed are compared."""

    name = "verify"
    min_passes = 2
    report = "verify_report.json"

    def __init__(self, seed: int):
        rng = seed_rng(seed, self.name)
        self.seed = program_seed(rng)
        # points for the build_r cross-check, z = x + iy off the pole lattice
        self.points = [complex(rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.5)) for _ in range(3)]

    def commands(self):
        return [("verify", ["verify", "--seed", str(self.seed)])]

    def check(self, label, outdir, code):
        doc = json.loads((outdir / self.report).read_text(encoding="utf-8"))
        rows = doc["results"]
        out = Outcome(attempted=len(rows))
        bad = [f"{r['check']}:{r['family']}({r['N']}|{r['M']})" for r in rows if r["verdict"] != "pass"]
        out.failed = len(bad)
        if bad:
            out.problems.append(f"verify rows not passing: {bad[:5]}")
        if doc["seed"] != self.seed or len(doc["specs"]) != 14:
            out.problems.append("verify report does not match its inputs")
        _verdict_exit(out, code, len(bad), label)
        return out

    def run_problems(self):
        g = import_program()
        problems = []
        for spec in g.default_specs():
            for z in self.points:
                got = g.build_r(spec, z).entries
                ref = oracles.r_closed_form(
                    spec.family.value, spec.dim.n_even, spec.dim.n_odd, spec.hbar, z
                )
                err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                if not err <= 1e-12:
                    problems.append(f"build_r {spec} at z={z}: relative error {err:.2e}")
        return problems


class OpsWorkload(CliWorkload):
    """Four-block identities and commutator probes for both families at
    (1|1) with L = 5 and (2|1) with L = 4, all orders.  A pass takes about
    13 s, so a run makes two at least."""

    name = "ops"
    min_passes = 2
    report = "ops_report.json"
    CASES = (("1,1", 5), ("2,1", 4))

    def __init__(self, seed: int):
        rng = seed_rng(seed, self.name)
        self.seeds = [program_seed(rng) for _ in self.CASES]
        self.f_identity_max = 0.0

    def commands(self):
        return [
            (
                f"ops_{nm.replace(',', '')}_L{L}",
                ["ops", "--family", "all", "--nm", nm, "--L", str(L), "--seed", str(s)],
            )
            for (nm, L), s in zip(self.CASES, self.seeds)
        ]

    def check(self, label, outdir, code):
        doc = json.loads((outdir / self.report).read_text(encoding="utf-8"))
        rows = doc["results"]
        L = doc["config"]["length"]
        out = Outcome(attempted=len(rows))
        out.failed = sum(r["verdict"] != "pass" for r in rows)
        commute = [r for r in rows if r["check"] == "commute"]
        want = 2 * math.comb(L - 1, 2)
        if len(commute) != want:
            out.problems.append(f"{label}: {len(commute)} commutator rows, expected {want}")
        worst = max((r["residual"] for r in commute), default=math.inf)
        if not worst <= COMMUTE_TOL:
            out.problems.append(f"{label}: commutator residual {worst:.3e} > {COMMUTE_TOL:.0e}")
        # f_identity is reported, not gated: its scale makes the gate vacuous
        for r in rows:
            if r["check"] == "f_identity":
                self.f_identity_max = max(self.f_identity_max, r["residual"], r["eta_spread"])
        _verdict_exit(out, code, out.failed, label)
        return out

    def notes(self):
        return [f"ops: largest f_identity residual {self.f_identity_max:.3e} (not gated, README fault (b))"]


@dataclass(frozen=True)
class ChainCase:
    family: str
    nm: tuple[int, int]
    length: int
    limit: str


class ChainWorkload(CliWorkload):
    """Dense H1/H2, [H1,H2], spectra, hbar -> 0 limit and the binary dump
    for uq(1|1) and zn(1|1) at L = 7 and uq(2|1) at L = 5, at a seeded
    hbar in [0.30, 0.31] (at least 0.014 from every pole hbar = m / L)."""

    name = "chain"
    report = "chain_report.json"
    CASES = (
        ChainCase("uq", (1, 1), 7, "hs"),
        ChainCase("zn", (1, 1), 7, "aniso"),
        ChainCase("uq", (2, 1), 5, "hs"),
    )
    #: commutator verdict, limit verdict, two spectra, one dump
    OPS_PER_CASE = 5

    def __init__(self, seed: int):
        rng = seed_rng(seed, self.name)
        self.hbars = [0.30 + 0.01 * float(rng.uniform()) for _ in self.CASES]

    def _label(self, case: ChainCase) -> str:
        return f"{case.family}_{case.nm[0]}{case.nm[1]}_L{case.length}"

    def commands(self):
        return [
            (
                self._label(c),
                [
                    "chain", "--family", c.family, "--nm", f"{c.nm[0]},{c.nm[1]}",
                    "--L", str(c.length), "--hbar", repr(h),
                    "--spectrum", "--limit", c.limit, "--dump-matrix",
                ],
            )
            for c, h in zip(self.CASES, self.hbars)
        ]

    def check(self, label, outdir, code):
        idx = [self._label(c) for c in self.CASES].index(label)
        case, hbar = self.CASES[idx], self.hbars[idx]
        n, L = sum(case.nm), case.length
        d = n ** L
        tag = f"{case.family}_{case.nm[0]}_{case.nm[1]}_L{L}"
        out = Outcome(attempted=self.OPS_PER_CASE)
        doc = json.loads((outdir / self.report).read_text(encoding="utf-8"))
        (row,) = doc["results"]
        verdicts = [row["verdict"], row["limit_verdict"]]
        out.failed = sum(v != "pass" for v in verdicts)
        _verdict_exit(out, code, out.failed, label)
        if not row["h1_h2_commutator"] <= CHAIN_COMMUTE_TOL:
            out.problems.append(f"{label}: [H1,H2] = {row['h1_h2_commutator']:.3e}")
        if not row["limit_max_deviation"] <= LIMIT_SANITY:
            out.problems.append(f"{label}: limit deviation {row['limit_max_deviation']:.3e}")

        head, mat, size = oracles.read_dump(outdir / f"h1_{tag}.bin")
        want_head = {"magic": b"GHSCHOP1", "n": n, "L": L, "tag": ("uq", "zn").index(case.family),
                     "hbar": complex(hbar)}
        if head != want_head or mat is None:
            out.problems.append(f"{label}: dump header {head} / size {size}, expected "
                                f"{want_head} / {oracles.DUMP_HEADER.size + 16 * d * d}")
            return out
        spectra = {
            name: oracles.read_spectrum_csv(outdir / f"spectrum_{name}_{tag}.csv")
            for name in ("h1", "h2")
        }
        for name, clusters in spectra.items():
            if sum(m for _, m in clusters) != d:
                out.problems.append(f"{label}: {name} multiplicities do not sum to {d}")
        clusters = spectra["h1"]
        eig_sum = sum(v * m for v, m in clusters)
        scale = sum(abs(v) * m for v, m in clusters)
        trace = complex(np.trace(mat))
        if not abs(eig_sum - trace) <= 1e-9 * scale:
            out.problems.append(f"{label}: eigenvalue sum {eig_sum} != dump trace {trace}")
        energy = oracles.polarized_odd_energy(L, hbar)
        gap = min(abs(v - energy) for v, _ in clusters)
        if not gap <= 1e-8 * max(1.0, abs(energy)):
            out.problems.append(f"{label}: polarized eigenvalue {energy} missing (gap {gap:.2e})")
        return out


# ---------------------------------------------------------------------------
# matrix-free apply
# ---------------------------------------------------------------------------


class ApplySetup:
    """H1 for uq(1|1) at L = 16, hbar = 0.3, with its factor plans built,
    and the states every pass applies it to:

    * the all-odd polarized state (an eigenvector, see ``oracles``);
    * the all-even polarized state (mapped exactly to 0);
    * two seeded random states in the half-filled colour sector (H1
      conserves colour content, so the image has no off-sector amplitude).
    """

    L = 16
    HBAR = 0.3
    SECTOR_STATES = 2

    def __init__(self, g, spec, h1, states, sector):
        self.g, self.spec, self.h1, self.states, self.sector = g, spec, h1, states, sector

    @classmethod
    def build(cls, seed: int) -> "ApplySetup":
        g = import_program()
        spec = g.RMatrixSpec(g.RFamily.UQ_GLNM, g.GradedDim(1, 1), cls.HBAR)
        h1 = g.hamiltonian_h1(spec, cls.L)
        d = spec.dim.n ** cls.L
        # basis index bits are the site directions (leg 1 slowest): bit 1 = odd
        content = np.zeros(d, dtype=np.int64)
        for bit in range(cls.L):
            content += (np.arange(d) >> bit) & 1
        sector = content == cls.L // 2
        odd, even = np.zeros(d, complex), np.zeros(d, complex)
        odd[-1], even[0] = 1.0, 1.0
        rng = seed_rng(seed, "apply")
        states = [odd, even]
        for _ in range(cls.SECTOR_STATES):
            v = np.zeros(d, complex)
            k = int(sector.sum())
            v[sector] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            states.append(v / np.linalg.norm(v))
        states = [g.ChainState(spec.dim, cls.L, v) for v in states]
        g.apply(h1, states[0])  # builds the factor plans
        return cls(g, spec, h1, states, sector)

    def run_pass(self, apply=None, between=None) -> tuple[list, float]:
        """Apply H1 to every state; return the images and the seconds spent
        in the applies.  ``between()`` runs, untimed, after each apply."""
        apply = apply or self.g.apply
        outs, busy = [], 0.0
        for st in self.states:
            t0 = time.perf_counter()
            outs.append(apply(self.h1, st))
            busy += time.perf_counter() - t0
            if between is not None:
                between()
        return outs, busy

    def check(self, outs) -> Outcome:
        out = Outcome(attempted=len(outs))
        energy = oracles.polarized_odd_energy(self.L, self.HBAR)
        odd_in, odd_out = self.states[0].amplitudes, outs[0].amplitudes
        err = np.max(np.abs(odd_out - energy * odd_in)) / abs(energy)
        if not err <= 1e-12:
            out.problems.append(f"apply: all-odd state not an eigenvector (rel. error {err:.2e})")
        if np.any(outs[1].amplitudes):
            out.problems.append("apply: all-even state not mapped to exactly 0")
        for res in outs[2:]:
            amp = res.amplitudes
            if np.any(amp[~self.sector]) or not np.linalg.norm(amp[self.sector]) > 0:
                out.problems.append("apply: half-filled sector state leaked off its sector")
        return out

    def factor_applies(self) -> int:
        return sum(len(term.factors) for term in self.h1.terms)


def make_cli(name: str, seed: int) -> CliWorkload:
    return {"verify": VerifyWorkload, "ops": OpsWorkload, "chain": ChainWorkload}[name](seed)

"""Reports: the serialized form and config hash every command writes,
and the rows and report of the identity battery."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np


def report_json(doc) -> str:
    """Every report's serialized form: sorted keys, indent 2, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def config_digest(cfg) -> str:
    """Every report's config hash: 16 hex digits of SHA-256 of sorted JSON."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class CheckResult:
    check: str
    family: str
    n_even: int
    n_odd: int
    samples: int
    tolerance: float
    max_residual: float
    mean_residual: float
    worst_point: dict
    resamples: int
    verdict: str
    note: str = ""

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["N"], doc["M"] = doc.pop("n_even"), doc.pop("n_odd")
        return doc


@dataclass
class VerificationReport:
    seed: int
    samples: int
    specs: list[str]
    results: list[CheckResult]
    config_hash: str
    version: str
    wall_time: float = field(default=0.0, compare=False)

    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.results)

    def to_json(self) -> str:
        # wall time stays out of the serialized form so equal seeds give
        # byte-identical reports
        doc = {
            "seed": self.seed,
            "samples": self.samples,
            "specs": self.specs,
            "config_hash": self.config_hash,
            "version": self.version,
            "results": [r.to_dict() for r in self.results],
        }
        return report_json(doc)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _cpx(v: complex) -> list[float]:
    return [float(np.real(v)), float(np.imag(v))]


def _result(check, name: str, residuals, points, resamples: int, tol: float) -> CheckResult:
    """Report row of one named residual array of a battery row (an
    ``IdentityCheck``) over the drawn points (one array per argument).

    Any non-finite residual fails the row: it reports infinity as maximum
    and mean, and the first non-finite sample as its worst point.
    """
    res = np.asarray(residuals, dtype=float)
    bad = np.flatnonzero(~np.isfinite(res))
    if bad.size:
        k, worst, mean = int(bad[0]), math.inf, math.inf
    elif check.last_max:
        k = len(res) - 1 - int(np.argmax(res[::-1]))
        worst, mean = float(res[k]), float(np.mean(res))
    else:
        k = int(np.argmax(res))
        worst, mean = float(res[k]), float(np.add.accumulate(res)[-1]) / len(res)
    spec = check.spec
    return CheckResult(
        check=name,
        family=spec.family.value,
        n_even=spec.dim.n_even,
        n_odd=spec.dim.n_odd,
        samples=check.samples,
        tolerance=tol,
        max_residual=worst,
        mean_residual=mean,
        worst_point={f"arg{i}": _cpx(col[k]) for i, col in enumerate(points)},
        resamples=resamples,
        verdict="pass" if worst <= tol else "fail",
    )

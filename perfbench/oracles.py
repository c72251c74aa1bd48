"""Reference values computed apart from the program.

Nothing here imports gradedhs: the R-matrix kernels are written out from
their closed forms, the polarized eigenvalue from the diagonal of the
normalized R-matrix and its derivative, and the binary dump and spectrum
CSV are parsed from their documented layouts.
"""

from __future__ import annotations

import cmath
import csv
import math
import struct

import numpy as np


def r_closed_form(family: str, n_even: int, n_odd: int, hbar: complex, z: complex) -> np.ndarray:
    """Unnormalized R(z) in the e_ab (x) e_cd coefficient layout.

    Diagonal:   pi ((-1)^{p_a} cot(pi z) + cot(pi hbar))  on e_aa (x) e_aa
    a != c:     pi / sin(pi hbar) * w_d                   on e_aa (x) e_cc
                (-1)^{p_c} pi / sin(pi z) * w_f            on e_ac (x) e_ca
    with w_d = 1, w_f = exp(i pi z sign(c - a)) for "uq" and
    w_d = exp(i pi hbar mu), w_f = exp(i pi z mu),
    mu = (2(a - c) - n sign(a - c)) / n for "zn".
    """
    n = n_even + n_odd
    par = [0] * n_even + [1] * n_odd
    pi = math.pi
    cot = lambda w: cmath.cos(pi * w) / cmath.sin(pi * w)
    R = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for c in range(n):
            row = a * n + c
            if a == c:
                R[row, row] = pi * ((-1) ** par[a] * cot(z) + cot(hbar))
                continue
            sgn = 1 if c > a else -1
            if family == "uq":
                w_d, w_f = 1.0, cmath.exp(1j * pi * z * sgn)
            else:
                mu = (2 * (a - c) + n * sgn) / n
                w_d, w_f = cmath.exp(1j * pi * hbar * mu), cmath.exp(1j * pi * z * mu)
            R[row, row] = pi / cmath.sin(pi * hbar) * w_d
            R[row, c * n + a] = (-1) ** par[c] * pi / cmath.sin(pi * z) * w_f
    return R


def polarized_odd_energy(length: int, hbar: complex) -> complex:
    """H1 eigenvalue of the state with every site in one odd direction.

    On that state each normalized factor acts by its diagonal entry
    r(z) = sin pi(z - hbar) / sin pi(z + hbar), and the derivative factor by
    f(z) = pi sin(2 pi hbar) / sin^2 pi(z + hbar).  Since r(z) r(-z) = 1 the
    R-strings of term (k, i) cancel down to one factor, leaving
    E = sum_{k<i} r(x_k - x_i) f(x_i - x_k) at x_k = k / L.
    """
    pi = math.pi
    r = lambda z: cmath.sin(pi * (z - hbar)) / cmath.sin(pi * (z + hbar))
    f = lambda z: pi * cmath.sin(2 * pi * hbar) / cmath.sin(pi * (z + hbar)) ** 2
    x = [k / length for k in range(1, length + 1)]
    return sum(
        r(x[k] - x[i]) * f(x[i] - x[k]) for i in range(length) for k in range(i)
    )


DUMP_HEADER = struct.Struct("<8sIIIdd")


def read_dump(path) -> tuple[dict, np.ndarray | None, int]:
    """Header fields, matrix (None if the size is wrong) and file size."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, n, length, tag, hre, him = DUMP_HEADER.unpack_from(raw)
    head = {"magic": magic, "n": n, "L": length, "tag": tag, "hbar": complex(hre, him)}
    d = n ** length
    if len(raw) != DUMP_HEADER.size + 16 * d * d:
        return head, None, len(raw)
    body = np.frombuffer(raw, dtype="<f8", offset=DUMP_HEADER.size)
    return head, (body[0::2] + 1j * body[1::2]).reshape(d, d), len(raw)


def read_spectrum_csv(path) -> list[tuple[complex, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [(complex(float(r["re"]), float(r["im"])), int(r["multiplicity"])) for r in rows]

"""Spans around calls into the program, recorded from the benchmark's side.

A span opens when a wrapped function is entered and closes when it
returns.  Spans are aggregated in memory as they close: per name, the call
count and the total time, which includes any spans nested inside.  Nothing
is written until the caller asks for :meth:`Tracer.summary`.

Functions are wrapped where their caller looks them up, e.g. the name
``embed_realized`` in the namespace of ``gradedhs.qmrops``; the program's
files are not touched, and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
import types


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, seconds]
        self.distinct: dict[str, set] = {}
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, key=None, after=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``key(*args)`` returns a hashable identity of the call's work, for
        the distinct-to-calls ratio; ``after(result, *args)`` runs once the
        span has closed, for counters such as bytes written.
        """
        stats = self.stats.setdefault(name, [0, 0.0])
        seen = self.distinct.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stats[0] += 1
                stats[1] += time.perf_counter() - t0
            if seen is not None:
                seen.add(key(*args, **kwargs))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- patching ----------------------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, **span_kwargs) -> None:
        """Replace ``owner.attr`` by a traced wrapper of itself."""
        self.replace(owner, attr, self.span(name, getattr(owner, attr), **span_kwargs))

    def patch_classmethod(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self.replace(cls, attr, classmethod(self.span(name, original.__func__)))

    def proxy_module(self, owner, attr: str, spans: dict[str, str]):
        """Give ``owner`` a stand-in for the module it holds as ``attr``.

        The stand-in forwards every name to the module and traces the names
        in ``spans`` (attribute -> span name).  Calls the module makes to
        itself bypass the stand-in, so they are not recorded under those
        names.
        """
        module = getattr(owner, attr)
        stand_in = types.SimpleNamespace(**vars(module))
        for fn_name, span_name in spans.items():
            setattr(stand_in, fn_name, self.span(span_name, getattr(module, fn_name)))
        self.replace(owner, attr, stand_in)
        return stand_in

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "spans": {name: {"calls": c, "s": total} for name, (c, total) in self.stats.items()},
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "counters": dict(self.counters),
        }


def factor_key(op, sites, length):
    """Identity of an embedded two-site factor: its entries, sites and L."""
    digest = hashlib.blake2b(op.entries.tobytes(), digest_size=16).digest()
    return digest, tuple(sites), length


def instrument_program(tracer: Tracer, g) -> None:
    """Trace the layers under the ``verify``, ``ops`` and ``chain`` commands.

    ``g`` is the imported ``gradedhs`` package.  Each layer is wrapped at the
    name its caller looks up; see the README for the table of what each
    span should move.
    """
    cli, verify, qmrops, rmatrix, chain, core = (
        g.cli, g.verify, g.qmrops, g.rmatrix, g.chain, g.gradedcore
    )
    # rmatrix builders, at every module that looks them up
    for owner in (rmatrix, qmrops):
        tracer.patch(owner, "build_r", "rmatrix.build_r")
    for owner in (qmrops, chain):
        tracer.patch(owner, "build_r_normalized", "rmatrix.build_r_normalized")
    tracer.patch(chain, "build_f_derivative", "rmatrix.build_f_derivative")
    # the battery binds its R builder as a default argument, so the traced
    # builder is handed to it where the command line calls it
    traced_build_r = tracer.span("rmatrix.build_r", verify.build_r)
    run_battery = cli.run_battery
    tracer.replace(cli, "run_battery", functools.wraps(run_battery)(
        lambda *a, **kw: run_battery(*a, r_builder=traced_build_r, **kw)
    ))
    # three-leg local-operator algebra used by the battery
    tracer.patch(verify, "embed_local", "gradedcore.embed_local")
    for owner in (verify, rmatrix):
        tracer.patch(owner, "super_multiply", "gradedcore.super_multiply")
    for check in VERIFY_CHECKS:
        tracer.patch(verify, check, f"verify.{check}")
    # difference operators
    tracer.patch(qmrops, "embed_realized", "gradedcore.embed_realized", key=factor_key)
    tracer.patch(cli, "commutator_eval", "qmrops.commutator_eval")
    for owner in (cli, qmrops):
        tracer.patch(owner, "f_identity_residual", "qmrops.f_identity_residual")
    # chains: the command line reaches them through its module alias
    stand_in = tracer.proxy_module(
        cli,
        "chain_mod",
        {
            "hamiltonian_h1": "chain.hamiltonian_h1",
            "hamiltonian_h2": "chain.hamiltonian_h2",
            "spectrum": "chain.spectrum",
            "nonrelativistic_limit_h1": "chain.nonrelativistic_limit_h1",
        },
    )
    stand_in.save_operator_binary = tracer.span(
        "chain.save_operator_binary",
        chain.save_operator_binary,
        after=lambda _res, _op, _spec, path: tracer.count(
            "chain.save_operator_binary.bytes", os.path.getsize(path)
        ),
    )
    tracer.patch(cli, "commutator_norm", "gradedcore.commutator_norm")
    tracer.patch_classmethod(core.ChainOperator, "from_terms", "gradedcore.from_terms")


#: the battery's checks, each timed as verify.<name>.s
VERIFY_CHECKS = (
    "check_qybe",
    "check_aybe",
    "check_aybe_z_independence",
    "check_unitarity",
    "check_normalized_unitarity",
    "check_skew",
    "check_twist",
    "check_periodicity",
    "check_residue",
    "check_kernel_reconstruction",
    "check_scalar_relations",
)

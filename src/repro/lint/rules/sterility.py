"""STER001 and the sterile-package rules FLT001/OBS001/SRV001/WLD001.

STER001 — no real network or process I/O may enter the simulation.  The
reproduction's whole claim to validity (DESIGN.md) is that the Luminati
ecosystem is simulated end to end: importing ``socket`` or ``requests``
anywhere in ``src/`` would let a "measurement" touch the live Internet,
which is exactly what the paper's ethics discussion (§3.4) engineers around
and what an offline reproduction must make impossible, not just unlikely.

The sterile-package rules are one rule, :class:`SterilePackage`, applied to
each package in :data:`STERILE_PACKAGES` under its own id.  Each of those
packages produces something whose bytes are an identity — fault decisions,
trace events, service schedules, world manifests — and that identity must
not depend on the host.  DET001/DET002 police *calls* repo-wide; inside a
sterile package the gate is stricter: even *importing* a clock or entropy
module is a finding.  That includes a *seeded* ``random.Random``: a
sequential stream's position depends on execution history, so two
topologies of the same run (1 worker vs. 4, crashed vs. uninterrupted)
would draw different values.  Sterile packages derive variation from keyed
hashes of stable identities instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.rules.base import Rule, banned_imports, call_name, wall_clock_call

#: Module prefixes that perform (or trivially enable) real I/O.
FORBIDDEN_MODULES: tuple[str, ...] = (
    "socket",
    "ssl",
    "http.client",
    "http.server",
    "urllib.request",
    "urllib.error",
    "requests",
    "subprocess",
    "socketserver",
    "ftplib",
    "smtplib",
    "telnetlib",
)


class SterileImports(Rule):
    """Forbid imports of real-I/O modules outside the explicit allowlist."""

    rule_id = "STER001"
    title = "real-I/O import in simulation code"
    rationale = (
        "The simulation must stay sterile: no sockets, TLS, subprocesses, or "
        "HTTP clients — all 'network' behaviour flows through the simulated "
        "fabric so runs are offline, safe, and reproducible."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, module, family in banned_imports(ctx.tree, FORBIDDEN_MODULES):
            verb = "from" if getattr(node, "module", None) == module else "of"
            yield self.finding(
                ctx, node, module,
                f"import {verb} real-I/O module '{module}' "
                f"(forbidden family: {family})",
            )


#: Module prefixes no sterile package may import: the wall clock and every
#: ambient entropy source.
HOST_STATE_MODULES: tuple[str, ...] = (
    "time", "datetime", "random", "secrets", "uuid", "numpy.random",
)

#: Raw OS entropy reads.
ENTROPY_CALLS = frozenset({"os.urandom", "os.getrandom"})


@dataclass
class SterilePackage(Rule):
    """Forbid wall-clock access and ambient entropy inside one package."""

    rule_id: str
    title: str
    rationale: str
    #: Posix path fragment that scopes the rule (``"repro/faults/"``).
    package: str
    #: What to do instead, appended to every finding's message.
    hint: str

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if self.package not in ctx.path:
            return
        for node, module, _ in banned_imports(ctx.tree, HOST_STATE_MODULES):
            yield self.finding(
                ctx, node, module,
                f"'{module}' must not be imported in {self.package}; {self.hint}",
            )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if wall_clock_call(name):
                yield self.finding(
                    ctx, node, name,
                    f"'{name}()' reads the wall clock inside {self.package}; "
                    f"{self.hint}",
                )
            elif name in ENTROPY_CALLS:
                yield self.finding(
                    ctx, node, name,
                    f"'{name}()' is an entropy source inside {self.package}; "
                    f"{self.hint}",
                )


#: One entry per sterile package; ``repro.lint.rules`` registers each.
#: Per-module exemptions (``obs/profiling.py``) live in ``DEFAULT_ALLOW``.
STERILE_PACKAGES: tuple[SterilePackage, ...] = (
    SterilePackage(
        rule_id="FLT001",
        title="fault decision outside the keyed-hash FaultPlan",
        rationale=(
            "Fault injection replays bit-for-bit across shards, workers, and "
            "crash/resume only because every decision is a position-"
            "independent hash of (plan seed, seam, key) drawn through "
            "FaultPlan.  Any RNG stream (even a seeded random.Random), "
            "entropy source (secrets, uuid, os.urandom), or wall-clock read "
            "in repro.faults reintroduces execution-order dependence."
        ),
        package="repro/faults/",
        hint="draw fault decisions as keyed hashes through FaultPlan",
    ),
    SterilePackage(
        rule_id="OBS001",
        title="wall clock or ambient randomness in the observability plane",
        rationale=(
            "Trace events are byte-comparable across worker counts and "
            "crash/resume only because every timestamp is the SimClock "
            "reading and every id is derived, not drawn.  Wall-clock reads "
            "or entropy anywhere in repro.obs except profiling.py (the "
            "digest-excluded ProfilingChannel) would leak scheduling or "
            "host state into the trace."
        ),
        package="repro/obs/",
        hint=(
            "trace timestamps come from the SimClock; wall-clock work "
            "belongs in repro.obs.profiling"
        ),
    ),
    SterilePackage(
        rule_id="SRV001",
        title="wall clock or ambient randomness in the service plane",
        rationale=(
            "A service run replays bit-for-bit — fire times, queue order, "
            "cache keys — only because scheduling reads the SimClock and "
            "jitter is a keyed hash of (seed, schedule key, occurrence).  A "
            "wall-clock read or RNG stream anywhere in repro.serve makes the "
            "queue's history depend on the host, and two runs of the same "
            "spec stop agreeing."
        ),
        package="repro/serve/",
        hint="schedule on the SimClock and derive jitter with jitter_fraction",
    ),
    SterilePackage(
        rule_id="WLD001",
        title="wall clock or ambient randomness in the world builder",
        rationale=(
            "A compiled world's manifest SHA-256 is its identity — it rides "
            "run digests, checkpoint manifests, and CI pins.  The same spec "
            "must therefore compile to the same bytes on every host and in "
            "every process, which dies the moment a binding tie-break or a "
            "manifest field comes from the wall clock or an RNG stream.  "
            "Selection order comes from stable_rank (a keyed hash); nothing "
            "else is allowed to break ties."
        ),
        package="repro/worldbuilder/",
        hint="break ties with stable_rank (a keyed hash of the binding key)",
    ),
)

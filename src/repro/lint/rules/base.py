"""Rule protocol and shared AST helpers for the lint pass."""

from __future__ import annotations

import abc
import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding


class Rule(abc.ABC):
    """One named invariant checked over a parsed module.

    Subclasses (or instances) set the three attributes below (they feed the
    documentation generator and the reporters) and implement :meth:`check`
    as a generator of findings.
    """

    rule_id: str
    title: str
    rationale: str

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield a finding for every violation in ``ctx.tree``."""

    def finding(
        self, ctx: FileContext, node: ast.AST, symbol: str, message: str
    ) -> Finding:
        """Shorthand for :meth:`FileContext.finding` with this rule's id."""
        return ctx.finding(self.rule_id, node, symbol, message)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call target, else ``None`` for computed targets."""
    return dotted_name(node.func)


#: ``time.<attr>`` calls that read (or block on) the wall clock.
_TIME_ATTRS = frozenset({
    "time", "time_ns",
    "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
    "sleep", "localtime", "gmtime",
})

#: ``datetime``/``date`` constructors that read the wall clock.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def wall_clock_call(name: str) -> bool:
    """True when a call to dotted ``name`` reads (or blocks on) the wall clock."""
    parts = name.split(".")
    if len(parts) == 2 and parts[0] == "time":
        return parts[1] in _TIME_ATTRS
    return (
        len(parts) >= 2
        and parts[-1] in _DATETIME_ATTRS
        and parts[-2] in ("datetime", "date")
    )


def _matching_prefix(module: str, prefixes: tuple[str, ...]) -> str | None:
    """The first of ``prefixes`` that ``module`` is or lives under, else ``None``."""
    for prefix in prefixes:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return None


def banned_imports(
    tree: ast.AST, prefixes: tuple[str, ...]
) -> Iterator[tuple[ast.stmt, str, str]]:
    """``(node, module, prefix)`` for every absolute import under ``prefixes``.

    ``from X import Y`` is also checked as ``X.Y``, so ``from http import
    client`` and ``from numpy import random`` cannot slip past a
    module-level check.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                hit = _matching_prefix(alias.name, prefixes)
                if hit is not None:
                    yield node, alias.name, hit
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            hit = _matching_prefix(node.module, prefixes)
            if hit is not None:
                yield node, node.module, hit
                continue
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                hit = _matching_prefix(full, prefixes)
                if hit is not None:
                    yield node, full, hit

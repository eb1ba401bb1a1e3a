"""Protocol linter: AST rules over ``src/repro`` (the static half).

Run as ``python -m repro.analysis.lint src/repro``; exits non-zero when
any finding survives. Suppress a finding with a justified pragma on the
flagged line (or the line above)::

    something.nt_store(off, data)  # analysis: allow(unfenced-nt-store) -- caller fences

A pragma without a ``-- reason`` does not suppress; it is reported as
``invalid-pragma`` instead.

Rules
-----
``raw-store-outside-protocol``
    ``device.store`` / ``nt_store`` (and their vectorized forms) called
    from a module outside the sanctioned protocol layers — persistence
    traffic must flow through the fs/core protocol code, not be issued
    ad hoc by benchmarks, the DB layer, or analysis code itself.
``unfenced-nt-store``
    A function issues a non-temporal store (``nt_store*`` or
    ``store_word_v``) but contains no reachable ``fence``/``persist``/
    ``drain``: the store may never be ordered-durable.
``mgl-lock-order``
    A loop acquiring locks over a ``terminals`` collection without
    ``sorted(...)`` — MGL terminal locks must be acquired in index
    order (the deadlock-avoidance discipline in ``core/locks.py``).
``ambient-nondeterminism``
    ``time.time``-style clocks or ambient ``random`` calls in
    crash-replayable paths, which would break seeded reproducers.
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.pragmas import PragmaTable, TRACE_RULE_NAMES

LINT_RULES: Dict[str, str] = {
    "raw-store-outside-protocol": "raw device store issued outside sanctioned protocol modules",
    "unfenced-nt-store": "non-temporal store with no reachable fence in the same function",
    "mgl-lock-order": "terminal locks acquired without sorted() ordering",
    "ambient-nondeterminism": "ambient clock/randomness in a crash-replayable path",
    "invalid-pragma": "analysis pragma without a justification, or for an unknown rule",
    "stale-pragma": "justified allow(...) pragma that suppresses no finding",
}

#: rules whose pragmas this engine owns for staleness accounting —
#: pragmas for flow/trace rules are someone else's business
_OWNED_RULES: Tuple[str, ...] = (
    "raw-store-outside-protocol",
    "unfenced-nt-store",
    "mgl-lock-order",
    "ambient-nondeterminism",
)

#: module prefixes allowed to issue raw device stores (protocol layers)
SANCTIONED_STORE_PREFIXES: Tuple[str, ...] = (
    "repro/nvm",
    "repro/core",
    "repro/fs",
    "repro/fsapi",
    "repro/db/pqueue.py",  # durable MPSC queue speaks the device protocol directly
)

#: module prefixes whose execution must be seed-deterministic (they run
#: under crash replay / the sweep)
REPLAYABLE_PREFIXES: Tuple[str, ...] = (
    "repro/nvm",
    "repro/core",
    "repro/fs",
    "repro/fsapi",
    "repro/crashsweep",
    "repro/obs",
    "repro/infer",
    "repro/db/pqueue.py",
    "repro/service",
)

_STORE_METHODS = frozenset({"store", "nt_store", "nt_store_v"})
_NT_METHODS = frozenset({"nt_store", "nt_store_v", "nt_store_words", "store_word_v"})
_FENCE_METHODS = frozenset({"fence", "persist", "drain"})
_DEVICE_NAMES = frozenset({"device", "buffer", "dev"})
_TIME_FUNCS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"})
_RANDOM_FUNCS = frozenset(
    {"random", "randrange", "randint", "choice", "choices", "shuffle", "sample", "getrandbits", "uniform"}
)

@dataclass
class LintFinding:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _flow_rule_names() -> frozenset:
    """Flow-checker rule names (lazy import: the flow package is a
    consumer of this module's file iterator)."""
    from repro.analysis.flow.report import FLOW_RULES

    return frozenset(FLOW_RULES)


def _attr_chain(node: ast.AST) -> List[str]:
    """Names along an attribute chain, e.g. ``fs.device.nt_store`` ->
    ['fs', 'device', 'nt_store']."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _is_device_receiver(chain: Sequence[str]) -> bool:
    # everything before the method name
    return any(part in _DEVICE_NAMES for part in chain[:-1])


def _module_path(path: str) -> str:
    """The ``repro/...`` part of a file path (POSIX separators)."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    return "/".join(parts)


def _has_prefix(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + "/") for p in prefixes)


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module = module
        self.sanctioned = _has_prefix(module, SANCTIONED_STORE_PREFIXES)
        self.replayable = _has_prefix(module, REPLAYABLE_PREFIXES)
        self.raw: List[Tuple[int, str]] = []  # (line, message)
        self.unfenced: List[Tuple[int, str]] = []
        self.lock_order: List[Tuple[int, str]] = []
        self.nondet: List[Tuple[int, str]] = []

    # -- per-function fence reachability -----------------------------------

    def _visit_function(self, node) -> None:
        nt_calls: List[Tuple[int, str]] = []
        fenced = False
        # walk without descending into nested defs (visited on their own)
        stack: List[ast.AST] = list(ast.iter_child_nodes(node))
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(sub))
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                chain = _attr_chain(sub.func)
                method = chain[-1] if chain else ""
                if method in _NT_METHODS and _is_device_receiver(chain):
                    nt_calls.append((sub.lineno, method))
                if method in _FENCE_METHODS:
                    fenced = True
        if nt_calls and not fenced:
            for line, method in nt_calls:
                self.unfenced.append(
                    (
                        line,
                        f"{method} in {node.name}() with no fence/persist/drain "
                        "reachable in the same function",
                    )
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- call-site rules ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            method = chain[-1]
            if (
                not self.sanctioned
                and method in _STORE_METHODS
                and _is_device_receiver(chain)
            ):
                self.raw.append(
                    (
                        node.lineno,
                        f"{'.'.join(chain)}(...) in non-protocol module "
                        f"{self.module}; route writes through the fs layer",
                    )
                )
            if self.replayable and len(chain) == 2:
                base, fn = chain
                if base == "time" and fn in _TIME_FUNCS:
                    self.nondet.append(
                        (node.lineno, f"time.{fn}() in crash-replayable path")
                    )
                elif base == "random" and fn in _RANDOM_FUNCS:
                    self.nondet.append(
                        (node.lineno, f"ambient random.{fn}() in crash-replayable path")
                    )
                elif base == "random" and fn == "Random" and not node.args and not node.keywords:
                    self.nondet.append(
                        (node.lineno, "unseeded random.Random() in crash-replayable path")
                    )
        self.generic_visit(node)

    # -- lock ordering -----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._mentions_terminals(node.iter) and not self._is_sorted(node.iter):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if sub.func.attr in ("lock", "acquire"):
                        self.lock_order.append(
                            (
                                node.lineno,
                                "terminal locks acquired in plan order; wrap the "
                                "iterable in sorted(..., key=lambda t: t[1])",
                            )
                        )
                        break
        self.generic_visit(node)

    @staticmethod
    def _mentions_terminals(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "terminals":
                return True
            if isinstance(sub, ast.Name) and sub.id == "terminals":
                return True
        return False

    @staticmethod
    def _is_sorted(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        )


def lint_source(
    text: str, path: str = "<string>", module: Optional[str] = None
) -> List[LintFinding]:
    """Lint one source blob; *module* overrides the repro-relative path
    used for the sanctioned/replayable prefix checks."""
    module = module if module is not None else _module_path(path)
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path, exc.lineno or 0, "syntax-error", str(exc))]
    visitor = _Visitor(module)
    visitor.visit(tree)
    raw_findings = (
        [("raw-store-outside-protocol", ln, msg) for ln, msg in visitor.raw]
        + [("unfenced-nt-store", ln, msg) for ln, msg in visitor.unfenced]
        + [("mgl-lock-order", ln, msg) for ln, msg in visitor.lock_order]
        + [("ambient-nondeterminism", ln, msg) for ln, msg in visitor.nondet]
    )
    table = PragmaTable(text)
    out: List[LintFinding] = []
    for rule, lineno, msg in sorted(raw_findings, key=lambda f: (f[1], f[0])):
        pragma = table.lookup(lineno, rule)
        if pragma is not None and pragma.valid:
            table.mark_used(pragma)
            continue
        if pragma is not None:  # matches a finding but has no reason
            out.append(
                LintFinding(
                    path,
                    pragma.line,
                    "invalid-pragma",
                    f"allow({rule}) has no '-- reason' justification",
                )
            )
        out.append(LintFinding(path, lineno, rule, msg))

    # pragma hygiene: unknown rule names, and justified pragmas for
    # lint-owned rules that suppressed nothing (dead suppressions)
    known = set(LINT_RULES) | set(TRACE_RULE_NAMES) | _flow_rule_names()
    for pragma in table.pragmas:
        if pragma.rule not in known:
            out.append(
                LintFinding(
                    path,
                    pragma.line,
                    "invalid-pragma",
                    f"allow({pragma.rule}) names no known analysis rule",
                )
            )
    for pragma in table.stale(_OWNED_RULES):
        out.append(
            LintFinding(
                path,
                pragma.line,
                "stale-pragma",
                f"allow({pragma.rule}) suppresses no finding here; remove "
                "it or fix the line it points at",
            )
        )
    out.sort(key=lambda f: (f.line, f.rule))
    return out


def iter_python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        else:
            files.append(path)
    return sorted(files)


def run_lint(paths: Sequence[str]) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for file in iter_python_files(paths):
        with open(file, "r", encoding="utf-8") as fh:
            findings.extend(lint_source(fh.read(), path=file))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        args = ["src/repro"]
    findings = run_lint(args)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"repro.analysis.lint: {len(findings)} finding(s)")
        return 1
    print("repro.analysis.lint: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

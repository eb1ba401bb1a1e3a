"""Persist-state analysis: ``unfenced-on-exception-path`` and
``mutate-before-validate``.

Abstract domain — a set of *store tokens*, one per store event that has
not yet provably reached durability::

    (line, kind, via)    kind ∈ {"dirty", "pending"}
                         via = 0, or the line of the except-handler the
                               token's path crossed

``dirty``  = stored but not flushed (cached ``store`` /
``atomic_store_u64``); ``pending`` = flushed but not fenced (the
``nt_store*`` family and ``store_word_v``). ``flush`` promotes dirty
tokens to pending; ``fence`` retires pending tokens;
``persist``/``drain`` retire everything. Handler-entry nodes retag
tokens with the handler's line, which is what separates "store still
outstanding on the normal path" from "store outstanding only because an
exception was swallowed".

**Bias.** Flushes and fences are applied to *all* outstanding tokens,
not just the byte ranges they name, and ambiguous call resolution takes
the intersection of candidate leave-behinds. Both choices are
optimistic: this is a bug *finder* (a report means some path really
skips the fence modulo range-matching), not a durability *verifier* —
see docs/analysis.md for the full soundness statement.

Rules:

``unfenced-on-exception-path``
    A function in a protocol module whose normal exits are clean (every
    straight-line path fences its stores) but where a swallowed
    exception can reach a normal exit with an unretired token. Clean
    normal exits are the trigger condition on purpose: functions that
    *intentionally* leave state unfenced (the device primitives, helper
    halves of an op) leave tokens on every path and are never
    op-boundaries.

``mutate-before-validate``
    In a bulk entry point (``*_v`` / ``*_words`` / ``*bulk*``), an
    explicit ``raise`` reachable with protocol-state mutations already
    applied — the PR 7/8 bug class, where a mid-batch validation
    failure leaves a half-applied batch. Validate-all-then-mutate-all
    keeps the mutation set empty at every raise; a merged loop trips
    the rule through the loop back edge (iteration 2's validation
    raise sees iteration 1's mutation).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import FunctionInfo, ProgramIndex, fixpoint
from repro.analysis.flow.cfg import CfgNode, attr_chain
from repro.analysis.flow.dataflow import run_forward
from repro.analysis.flow.report import FlowFinding, TraceStep

__all__ = [
    "PROTOCOL_PREFIXES",
    "PersistSummary",
    "compute_persist_summaries",
    "check_persist",
    "check_bulk_validate",
    "is_device_call",
]

#: modules whose mutations must obey the MGSP ordering protocol
PROTOCOL_PREFIXES = ("repro/core", "repro/nvm", "repro/fs", "repro/fsapi", "repro/db")

#: receiver names that denote the simulated NVM device / store buffer
DEVICE_RECEIVERS = {"device", "dev", "buffer", "buf", "nvm"}

DIRTY_STORES = {"store", "atomic_store_u64"}
PENDING_STORES = {
    "nt_store",
    "nt_store_v",
    "nt_store_words",
    "store_word_v",
}
FLUSHES = {"flush"}
FENCES = {"fence"}
CLEAR_ALL = {"persist", "drain"}

Token = Tuple[int, str, int]  # (line, kind, via-handler-line)
State = FrozenSet[Token]

#: (leaves-kinds-at-normal-exit, may_flush, may_fence, may_store)
PersistSummary = Tuple[FrozenSet[str], bool, bool, bool]

_NO_EFFECT: PersistSummary = (frozenset(), False, False, False)


def is_device_call(call: ast.Call) -> Optional[str]:
    """The device primitive a call invokes, or ``None``.

    Classification is receiver-based (``fs.device.nt_store``,
    ``self.buffer.flush`` ...) so that look-alike methods on other
    objects (``tree.store_word`` and friends) go through real summaries
    instead of being treated as primitives.
    """
    chain = attr_chain(call.func)
    if len(chain) < 2 or chain[-2] not in DEVICE_RECEIVERS:
        return None
    method = chain[-1]
    if method in DIRTY_STORES | PENDING_STORES | FLUSHES | FENCES | CLEAR_ALL:
        return method
    return None


def _callee_summary(
    index: ProgramIndex,
    call: ast.Call,
    caller: FunctionInfo,
    summaries: Dict[str, PersistSummary],
) -> PersistSummary:
    # Only protocol code can affect persist state: observability /
    # analysis / sim callees are persist-neutral by construction, and
    # letting name-fallback resolution reach them smears their
    # (meaningless) effects into protocol summaries.
    candidates = [c for c in index.resolve(call, caller) if in_protocol_module(c)]
    if not candidates:
        return _NO_EFFECT
    summs = [summaries.get(c.qualname + "@" + c.path, _NO_EFFECT) for c in candidates]
    leaves = summs[0][0]
    may_flush = may_fence = may_store = False
    for s in summs:
        leaves &= s[0]  # intersection: only certain leave-behinds count
        may_flush = may_flush or s[1]
        may_fence = may_fence or s[2]
        may_store = may_store or s[3]
    return (leaves, may_flush, may_fence, may_store)


def _apply_call(
    state: State,
    call: ast.Call,
    index: ProgramIndex,
    caller: FunctionInfo,
    summaries: Dict[str, PersistSummary],
) -> State:
    primitive = is_device_call(call)
    if primitive is not None:
        if primitive in DIRTY_STORES:
            return state | {(call.lineno, "dirty", 0)}
        if primitive in PENDING_STORES:
            return state | {(call.lineno, "pending", 0)}
        if primitive in FLUSHES:
            return frozenset((ln, "pending", via) for ln, _k, via in state)
        if primitive in FENCES:
            return frozenset(t for t in state if t[1] != "pending")
        return frozenset()  # persist / drain
    leaves, may_flush, may_fence, _may_store = _callee_summary(
        index, call, caller, summaries
    )
    if may_flush:
        state = frozenset((ln, "pending", via) for ln, _k, via in state)
    if may_fence:
        state = frozenset(t for t in state if t[1] != "pending")
    for kind in sorted(leaves):
        state = state | {(call.lineno, kind, 0)}
    return state


def _analyze_fn(
    fn: FunctionInfo,
    index: ProgramIndex,
    summaries: Dict[str, PersistSummary],
):
    def transfer(node: CfgNode, state: State) -> State:
        for call in node.calls:
            state = _apply_call(state, call, index, fn, summaries)
        return state

    def handler_entry(node: CfgNode, state: State) -> State:
        # tag everything still outstanding as having crossed this
        # handler; the innermost handler wins (first tag is kept)
        return frozenset(
            (ln, kind, via if via else node.line) for ln, kind, via in state
        )

    return run_forward(fn.cfg, frozenset(), transfer, handler_entry)


def _summary_of(fn: FunctionInfo, index: ProgramIndex, summaries) -> PersistSummary:
    result = _analyze_fn(fn, index, summaries)
    exit_state = result.exit_state or frozenset()
    leaves = frozenset(kind for _ln, kind, _via in exit_state)
    may_flush = may_fence = may_store = False
    for node in fn.cfg.nodes.values():
        for call in node.calls:
            primitive = is_device_call(call)
            if primitive is not None:
                may_flush = may_flush or primitive in FLUSHES or primitive in CLEAR_ALL
                may_fence = may_fence or primitive in FENCES or primitive in CLEAR_ALL
                may_store = may_store or primitive in DIRTY_STORES | PENDING_STORES
            else:
                _l, c_flush, c_fence, c_store = _callee_summary(
                    index, call, fn, summaries
                )
                may_flush = may_flush or c_flush
                may_fence = may_fence or c_fence
                may_store = may_store or c_store
    return (leaves, may_flush, may_fence, may_store)


def compute_persist_summaries(index: ProgramIndex) -> Dict[str, PersistSummary]:
    return fixpoint(
        index.functions,
        lambda fn, summaries: _summary_of(fn, index, summaries),
        key=lambda fn: fn.qualname + "@" + fn.path,
    )


def in_protocol_module(fn: FunctionInfo) -> bool:
    return fn.module.startswith(PROTOCOL_PREFIXES)


def check_persist(
    index: ProgramIndex, summaries: Dict[str, PersistSummary]
) -> List[FlowFinding]:
    """``unfenced-on-exception-path`` over all protocol-module functions."""
    findings: List[FlowFinding] = []
    for fn in index.functions:
        if not in_protocol_module(fn):
            continue
        result = _analyze_fn(fn, index, summaries)
        exit_state = result.exit_state or frozenset()
        normal = [t for t in exit_state if t[2] == 0]
        via = [t for t in exit_state if t[2] != 0]
        if normal or not via:
            continue  # not op-clean, or no exception-path leftovers
        for line, kind, handler_line in sorted(set(via)):
            findings.append(
                FlowFinding(
                    rule="unfenced-on-exception-path",
                    path=fn.path,
                    line=line,
                    message=(
                        f"{kind} store may never reach flush+fence: the "
                        f"exception handler at line {handler_line} swallows "
                        f"the failure and {fn.qualname}() returns normally"
                    ),
                    trace=[
                        TraceStep(fn.path, line, f"store issued here (left {kind})"),
                        TraceStep(
                            fn.path,
                            handler_line,
                            "exception handled here; execution continues",
                        ),
                        TraceStep(
                            fn.path,
                            fn.line,
                            f"{fn.qualname}() returns with the store unfenced "
                            "(every non-exception path fences)",
                        ),
                    ],
                    extra_pragma_lines=(handler_line,),
                )
            )
    return findings


# -- mutate-before-validate ------------------------------------------------

_BULK_SUFFIXES = ("_v", "_words")
_MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "remove",
    "setdefault",
    "update",
    "write",
}


def is_bulk_function(fn: FunctionInfo) -> bool:
    return fn.name.endswith(_BULK_SUFFIXES) or "bulk" in fn.name


def _state_aliases(fn: FunctionInfo) -> Set[str]:
    """Local names bound (anywhere in the function) to ``self``-rooted
    state — ``working = self.working`` makes ``working[...] = x`` a
    protocol-state mutation."""
    aliases: Set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign):
            continue
        roots = {
            chain[0]
            for sub in ast.walk(node.value)
            if isinstance(sub, ast.Attribute)
            for chain in [attr_chain(sub)]
            if chain
        }
        if "self" not in roots and not roots & DEVICE_RECEIVERS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _is_stats_chain(chain: List[str]) -> bool:
    return any("stat" in part or part in ("metrics", "counters") for part in chain)


def _mutation_lines(stmt: ast.AST, aliases: Set[str]) -> List[int]:
    """Protocol-state mutations inside one statement (stats excluded)."""
    lines: List[int] = []

    def base_is_state(expr: ast.AST) -> bool:
        chain = attr_chain(expr)
        if not chain or _is_stats_chain(chain):
            return False
        return chain[0] == "self" or chain[0] in aliases

    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and base_is_state(target.value):
                    lines.append(node.lineno)
                elif isinstance(target, ast.Attribute):
                    chain = attr_chain(target)
                    if (
                        chain
                        and not _is_stats_chain(chain)
                        and chain[0] == "self"
                        and len(chain) >= 2
                    ):
                        lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if (
                len(chain) >= 2
                and chain[-1] in _MUTATOR_METHODS
                and not _is_stats_chain(chain)
                and (chain[0] == "self" or chain[0] in aliases)
            ):
                lines.append(node.lineno)
    return lines


def check_bulk_validate(index: ProgramIndex) -> List[FlowFinding]:
    """``mutate-before-validate`` over bulk functions in protocol modules."""
    findings: List[FlowFinding] = []
    for fn in index.functions:
        if not in_protocol_module(fn) or not is_bulk_function(fn):
            continue
        aliases = _state_aliases(fn)
        cfg = fn.cfg

        def transfer(node: CfgNode, state: FrozenSet[int]) -> FrozenSet[int]:
            new: List[int] = []
            for fragment in node.src:
                new.extend(_mutation_lines(fragment, aliases))
            return state | frozenset(new) if new else state

        result = run_forward(cfg, frozenset(), transfer)
        for node in cfg.nodes.values():
            if not isinstance(node.stmt, ast.Raise):
                continue
            state = result.state_in(node.nid)
            if not state:
                continue
            first = min(state)
            findings.append(
                FlowFinding(
                    rule="mutate-before-validate",
                    path=fn.path,
                    line=node.line,
                    message=(
                        f"bulk op {fn.qualname}() can raise mid-batch at line "
                        f"{node.line} after mutating state (line {first}): "
                        "validation must complete before the first mutation"
                    ),
                    trace=[
                        TraceStep(fn.path, first, "state mutated here"),
                        TraceStep(
                            fn.path,
                            node.line,
                            "validation failure raised here with the batch "
                            "half-applied",
                        ),
                    ],
                    extra_pragma_lines=(first,),
                )
            )
    return findings

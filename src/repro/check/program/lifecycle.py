"""Resource-linearity pass: every acquire must release on every path.

For each :class:`~.protocols.ResourceProtocol` in the catalog, this pass
finds acquisition sites (``record = BatchRecord(...)``, ``tmp =
f"{path}.tmp.{pid}"``, ``directory.mkdir(...)``) and symbolically walks the
enclosing function's statement tree, tracking one abstract state per path —
``pre`` (not yet acquired), ``open``, ``done`` (released or ownership
transferred).  A function exit that can carry ``open`` is a finding:

* ``lifecycle-leak`` — a fall-through / ``return`` path (or a rebound /
  discarded handle) never releases;
* ``lifecycle-exception-leak`` — an exception can escape with the resource
  open (any call may raise; ``try`` handlers and ``finally`` blocks are
  walked with the states live at the raise points).

Releases are recognized three ways: a catalog release method on the
resource (``conn.close()``), a catalog call taking the resource as an
argument (``os.replace(tmp, path)``), or — interprocedurally — a project
callee whose own walk proves it releases that parameter on all of *its*
paths (``self._abort_record(record)`` releases because its body
unconditionally reaches ``log.append``).  ``with`` acquisition, returning
the resource, and storing it into an object/container discharge the
obligation per the protocol's escape flags.

Known limits (deliberate): handlers are assumed to catch whatever the body
raises (exception *types* are not modeled); generator functions are
skipped; aliasing (``r2 = record``) conservatively transfers ownership.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .base import AnalysisPass, Finding, Rule
from .ir import FunctionInfo, ModuleInfo, ProjectIR, _dotted, resolve_call
from .protocols import PROTOCOLS, ResourceProtocol, matches_any

#: Path states.
_PRE, _OPEN, _DONE = "pre", "open", "done"

#: Container-mutation method names that store their argument: passing the
#: resource to one of these transfers ownership (escape_stores).
_STORE_METHODS = frozenset(
    {"append", "add", "insert", "appendleft", "put", "put_nowait",
     "setdefault", "push", "register"}
)

_RULES = {
    "leak": Rule(
        id="lifecycle-leak",
        pass_name="lifecycle",
        description=(
            "A protocol resource can reach a normal function exit (or be "
            "rebound/discarded) without its release being called."
        ),
    ),
    "exception": Rule(
        id="lifecycle-exception-leak",
        pass_name="lifecycle",
        description=(
            "An exception can escape the enclosing function while a "
            "protocol resource is still open: no handler/finally path "
            "guarantees the release."
        ),
    ),
}


class _Acquire:
    """One acquisition site inside a function."""

    __slots__ = ("stmt", "name", "line", "col")

    def __init__(self, stmt: ast.stmt, name: str, line: int, col: int) -> None:
        self.stmt = stmt
        self.name = name
        self.line = line
        self.col = col


def _calls_in(node: ast.AST) -> List[ast.Call]:
    """Every call expression in ``node``, not descending into nested
    function/class definitions or lambdas."""
    out: List[ast.Call] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        for child in ast.iter_child_nodes(cur):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            if isinstance(child, ast.Call):
                out.append(child)
            stack.append(child)
    return out


def _names_in(node: ast.AST) -> Set[str]:
    return {
        n.id for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _has_string_fragment(node: ast.AST, fragment: str) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            if fragment in n.value:
                return True
    return False


def _is_generator(node: ast.AST) -> bool:
    for n in ast.walk(node):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if n is not node:
                continue
        if isinstance(n, (ast.Yield, ast.YieldFrom)):
            return True
    return False


class _Walker:
    """Symbolic walk of one function for one protocol + resource name.

    ``live`` sets hold path states; ``walk_body`` returns outcome tuples
    ``(kind, state)`` with kind in fall/return/raise/break/continue.
    """

    def __init__(
        self,
        owner: "LifecyclePass",
        ir: ProjectIR,
        module: ModuleInfo,
        fn: FunctionInfo,
        protocol: ResourceProtocol,
        res: str,
        acquire_stmt: Optional[ast.stmt],
    ) -> None:
        self.owner = owner
        self.ir = ir
        self.module = module
        self.fn = fn
        self.protocol = protocol
        self.res = res
        self.acquire_stmt = acquire_stmt
        self.rebind_leaks: List[ast.stmt] = []

    # ---------------------------------------------------------- matching

    def _is_release_call(self, call: ast.Call) -> bool:
        proto = self.protocol
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self.res
            and func.attr in proto.release_methods
        ):
            return True
        arg_idx = self._resource_arg_index(call)
        if arg_idx is None:
            return False
        raw = _dotted(func)
        if raw is not None and matches_any(raw, proto.release_arg_calls):
            return True
        callee = resolve_call(self.ir, self.module, self.fn, call)
        if callee is not None:
            kw = None
            if arg_idx < 0:
                kw = call.keywords[-arg_idx - 1].arg
                arg_idx = 0
            return self.owner.releases_param(
                self.ir, self.protocol, callee, arg_idx, kw
            )
        return False

    def _resource_arg_index(self, call: ast.Call) -> Optional[int]:
        """Positional index of the resource among the call's args, or a
        negative ``-(kw_index+1)`` marker for keyword args, or None."""
        for i, a in enumerate(call.args):
            if isinstance(a, ast.Name) and a.id == self.res:
                return i
        for i, kw in enumerate(call.keywords):
            v = kw.value
            if kw.arg is not None and isinstance(v, ast.Name) and v.id == self.res:
                return -(i + 1)
        return None

    def _escapes(self, st: ast.stmt) -> bool:
        proto = self.protocol
        if isinstance(st, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = st.value
            if value is not None and self.res in _names_in(value):
                targets = st.targets if isinstance(st, ast.Assign) else [st.target]
                if proto.escape_stores and any(
                    isinstance(t, (ast.Attribute, ast.Subscript, ast.Tuple, ast.List))
                    for t in targets
                ):
                    return True
                # Alias (`r2 = record`): stop tracking conservatively.
                if any(
                    isinstance(t, ast.Name) and t.id != self.res for t in targets
                ):
                    return True
        if proto.escape_stores:
            for call in _calls_in(st):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _STORE_METHODS
                    and self._resource_arg_index(call) is not None
                    and not self._is_release_call(call)
                ):
                    return True
        return False

    def _guard_kind(self, test: ast.expr) -> Optional[str]:
        """Recognize `if res:` / `if res is not None:` ('taken') and
        `if res is None:` / `if not res:` ('skipped') guards on the
        resource name itself."""
        if isinstance(test, ast.Name) and test.id == self.res:
            return "taken"
        if (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
            and test.operand.id == self.res
        ):
            return "skipped"
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == self.res
            and len(test.ops) == 1
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            if isinstance(test.ops[0], ast.IsNot):
                return "taken"
            if isinstance(test.ops[0], ast.Is):
                return "skipped"
        return None

    # ------------------------------------------------------------ walking

    def walk_body(
        self, stmts: Sequence[ast.stmt], live: FrozenSet[str]
    ) -> Set[Tuple[str, str]]:
        out: Set[Tuple[str, str]] = set()
        cur = set(live)
        for st in stmts:
            if not cur:
                break
            cur, exits = self._walk_stmt(st, frozenset(cur))
            cur = set(cur)
            out |= exits
        for s in cur:
            out.add(("fall", s))
        return out

    def _generic(
        self, st: ast.stmt, live: FrozenSet[str]
    ) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        """Effects of a straight-line statement: releases, escapes, raises."""
        calls = _calls_in(st)
        releases = any(self._is_release_call(c) for c in calls)
        non_release_calls = [c for c in calls if not self._is_release_call(c)]
        may_raise = bool(non_release_calls)
        escapes = self._escapes(st)
        is_acquire = st is self.acquire_stmt

        new_live: Set[str] = set()
        exits: Set[Tuple[str, str]] = set()
        for s in live:
            if may_raise:
                exits.add(("raise", s))
            s2 = s
            if s == _OPEN and (releases or escapes):
                s2 = _DONE
            if is_acquire:
                if s2 == _OPEN:
                    # Second acquisition while open: the first handle is
                    # overwritten and lost.
                    self.rebind_leaks.append(st)
                s2 = _OPEN
            elif s2 == _OPEN and self._rebinds(st):
                self.rebind_leaks.append(st)
                s2 = _DONE
            new_live.add(s2)
        return new_live, exits

    def _rebinds(self, st: ast.stmt) -> bool:
        if isinstance(st, ast.Assign):
            targets = st.targets
        elif isinstance(st, (ast.AnnAssign, ast.AugAssign)):
            targets = [st.target]
        elif isinstance(st, (ast.For, ast.AsyncFor)):
            targets = [st.target]
        else:
            return False
        for t in targets:
            for n in ast.walk(t):
                if (
                    isinstance(n, ast.Name)
                    and n.id == self.res
                    and isinstance(n.ctx, ast.Store)
                ):
                    return True
        return False

    def _walk_stmt(
        self, st: ast.stmt, live: FrozenSet[str]
    ) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        if isinstance(st, ast.Return):
            exits: Set[Tuple[str, str]] = set()
            calls = _calls_in(st)
            may_raise = any(not self._is_release_call(c) for c in calls)
            releases = any(self._is_release_call(c) for c in calls)
            returns_res = st.value is not None and self.res in _names_in(st.value)
            for s in live:
                if may_raise:
                    exits.add(("raise", s))
                s2 = s
                if s == _OPEN and (
                    releases or (returns_res and self.protocol.escape_returns)
                ):
                    s2 = _DONE
                exits.add(("return", s2))
            return set(), exits

        if isinstance(st, ast.Raise):
            _live2, exits = self._generic(st, live)
            for s in live:
                exits.add(("raise", s))
            return set(), exits

        if isinstance(st, (ast.Break, ast.Continue)):
            kind = "break" if isinstance(st, ast.Break) else "continue"
            return set(), {(kind, s) for s in live}

        if isinstance(st, ast.If):
            live2, exits = self._test_effects(st.test, live)
            guard = self._guard_kind(st.test)
            body_out = self.walk_body(st.body, frozenset(live2))
            if guard == "taken":
                # `if res is not None:` — on tracked paths the branch is
                # taken; the skip path belongs to never-acquired runs.
                merged = body_out
            elif guard == "skipped":
                merged = {("fall", s) for s in live2}
                if st.orelse:
                    merged = self.walk_body(st.orelse, frozenset(live2))
            else:
                merged = set(body_out)
                if st.orelse:
                    merged |= self.walk_body(st.orelse, frozenset(live2))
                else:
                    merged |= {("fall", s) for s in live2}
            after = {s for k, s in merged if k == "fall"}
            exits |= {(k, s) for k, s in merged if k != "fall"}
            return after, exits

        if isinstance(st, (ast.While, ast.For, ast.AsyncFor)):
            return self._walk_loop(st, live)

        if isinstance(st, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._walk_try(st, live)

        if isinstance(st, (ast.With, ast.AsyncWith)):
            exits = set()
            live2 = set(live)
            for item in st.items:
                l2, ex = self._test_effects(item.context_expr, frozenset(live2))
                live2 = l2
                exits |= ex
            body_out = self.walk_body(st.body, frozenset(live2))
            after = {s for k, s in body_out if k == "fall"}
            exits |= {(k, s) for k, s in body_out if k != "fall"}
            return after, exits

        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return set(live), set()

        return self._generic(st, live)

    def _test_effects(
        self, expr: ast.expr, live: FrozenSet[str]
    ) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        calls = _calls_in(expr)
        releases = any(self._is_release_call(c) for c in calls)
        may_raise = any(not self._is_release_call(c) for c in calls)
        exits: Set[Tuple[str, str]] = set()
        out: Set[str] = set()
        for s in live:
            if may_raise:
                exits.add(("raise", s))
            out.add(_DONE if (s == _OPEN and releases) else s)
        return out, exits

    def _walk_loop(
        self, st: ast.stmt, live: FrozenSet[str]
    ) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        exits: Set[Tuple[str, str]] = set()
        if isinstance(st, ast.While):
            head = st.test
            infinite = isinstance(head, ast.Constant) and bool(head.value)
        else:
            head = st.iter
            infinite = False
        cur, head_exits = self._test_effects(head, live)
        exits |= head_exits
        if self._rebinds(st):
            # `for record in ...:` rebinding the handle.
            rebound = set()
            for s in cur:
                if s == _OPEN:
                    self.rebind_leaks.append(st)
                    s = _DONE
                rebound.add(s)
            cur = rebound
        breaks: Set[str] = set()
        entry = set(cur)
        while True:
            body_out = self.walk_body(st.body, frozenset(entry))
            breaks |= {s for k, s in body_out if k == "break"}
            exits |= {(k, s) for k, s in body_out if k in ("return", "raise")}
            again = entry | {s for k, s in body_out if k in ("fall", "continue")}
            if again == entry:
                break
            entry = again
        completion = set() if infinite else set(entry)
        if st.orelse and completion:
            else_out = self.walk_body(st.orelse, frozenset(completion))
            completion = {s for k, s in else_out if k == "fall"}
            exits |= {(k, s) for k, s in else_out if k != "fall"}
        return breaks | completion, exits

    def _walk_try(
        self, st: ast.Try, live: FrozenSet[str]
    ) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        body_out = self.walk_body(st.body, live)
        raises = {s for k, s in body_out if k == "raise"}
        outcomes = {(k, s) for k, s in body_out if k != "raise"}

        if st.orelse:
            falls = {s for k, s in outcomes if k == "fall"}
            outcomes = {(k, s) for k, s in outcomes if k != "fall"}
            if falls:
                outcomes |= self.walk_body(st.orelse, frozenset(falls))

        if st.handlers and raises:
            # Types are not modeled: assume each handler can see every raise
            # state and union their outcomes.
            for h in st.handlers:
                outcomes |= self.walk_body(h.body, frozenset(raises))
        else:
            outcomes |= {("raise", s) for s in raises}

        if st.finalbody:
            routed: Set[Tuple[str, str]] = set()
            for k, s in outcomes:
                for fk, fs in self.walk_body(st.finalbody, frozenset({s})):
                    routed.add((k, fs) if fk == "fall" else (fk, fs))
            outcomes = routed

        after = {s for k, s in outcomes if k == "fall"}
        exits = {(k, s) for k, s in outcomes if k != "fall"}
        return after, exits


class LifecyclePass(AnalysisPass):
    """Interprocedural resource-linearity checks over the protocol catalog."""

    name = "lifecycle"
    rules = tuple(_RULES.values())

    def __init__(self, protocols: Sequence[ResourceProtocol] = PROTOCOLS) -> None:
        self.protocols = tuple(protocols)
        #: (protocol.name, callee qname, arg position/kw) → releases?
        self._summaries: Dict[Tuple[str, str, object], bool] = {}
        self._in_progress: Set[Tuple[str, str, object]] = set()

    # ------------------------------------------------- summary computation

    def releases_param(
        self,
        ir: ProjectIR,
        protocol: ResourceProtocol,
        callee: str,
        arg_idx: int,
        kw: Optional[str] = None,
    ) -> bool:
        """True when ``callee`` provably releases the given parameter on
        all of its paths (normal and exceptional)."""
        key = (protocol.name, callee, kw if kw is not None else arg_idx)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            return False
        fn = ir.functions.get(callee)
        if fn is None or _is_generator(fn.node):
            self._summaries[key] = False
            return False
        params = fn.params
        if kw is not None:
            pname = kw if kw in params else None
        else:
            offset = 1 if fn.owner_class is not None else 0
            pos = arg_idx + offset
            pname = params[pos] if pos < len(params) else None
        if pname is None:
            self._summaries[key] = False
            return False
        module = ir.modules.get(fn.module)
        if module is None:
            self._summaries[key] = False
            return False
        self._in_progress.add(key)
        try:
            walker = _Walker(self, ir, module, fn, protocol, pname, None)
            outcomes = walker.walk_body(fn.node.body, frozenset({_OPEN}))
            ok = all(s != _OPEN for _k, s in outcomes)
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = ok
        return ok

    # ------------------------------------------------------------ running

    def run(self, ir: ProjectIR) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[Tuple[str, str, int, str]] = set()

        def emit(rule_key: str, module: ModuleInfo, line: int, col: int,
                 message: str) -> None:
            rule = _RULES[rule_key]
            key = (rule.id, str(module.path), line, message)
            if key in seen:
                return
            seen.add(key)
            findings.append(
                self.make_finding(rule, str(module.path), line, col, message)
            )

        for mod_name in sorted(ir.modules):
            module = ir.modules[mod_name]
            last = mod_name.split(".")[-1]
            in_scope = [
                p for p in self.protocols if not p.scope or last in p.scope
            ]
            if not in_scope:
                continue
            for fn in sorted(module.functions.values(), key=lambda f: f.qname):
                if _is_generator(fn.node):
                    continue
                for proto in in_scope:
                    self._check_function(ir, module, fn, proto, emit)
        return findings

    # ------------------------------------------------------ per-function

    def _check_function(self, ir, module, fn, proto, emit) -> None:
        acquires, discarded = _find_acquires(ir, module, fn, proto)
        for node in discarded:
            emit(
                "leak", module, node.lineno, node.col_offset,
                f"[{proto.name}] acquired resource is discarded immediately "
                f"(result of the acquiring call is not bound): {proto.description}",
            )
        for acq in acquires:
            walker = _Walker(self, ir, module, fn, proto, acq.name, acq.stmt)
            outcomes = walker.walk_body(fn.node.body, frozenset({_PRE}))
            kinds = {k for k, s in outcomes if s == _OPEN}
            where = f"'{acq.name}' acquired in {fn.local_name}()"
            if kinds & {"fall", "return", "break", "continue"}:
                emit(
                    "leak", module, acq.line, acq.col,
                    f"[{proto.name}] {where} is not released on every "
                    f"normal exit path: {proto.description}",
                )
            if "raise" in kinds:
                emit(
                    "exception", module, acq.line, acq.col,
                    f"[{proto.name}] {where} leaks when an exception "
                    f"escapes: no handler/finally guarantees the release "
                    f"({proto.description})",
                )
            for st in walker.rebind_leaks:
                emit(
                    "leak", module, st.lineno, st.col_offset,
                    f"[{proto.name}] {where} is rebound while still open "
                    f"— the original handle is lost unreleased",
                )


def _acquire_call_matches(
    ir: ProjectIR, module: ModuleInfo, fn: FunctionInfo,
    call: ast.Call, proto: ResourceProtocol,
) -> bool:
    raw = _dotted(call.func)
    if raw is not None and proto.acquire_raw and matches_any(raw, proto.acquire_raw):
        return True
    if proto.acquire_callees:
        callee = resolve_call(ir, module, fn, call)
        if callee is not None:
            if callee.endswith(".__init__"):
                callee = callee[: -len(".__init__")]
            if matches_any(callee, proto.acquire_callees):
                return True
    return False


def _find_acquires(
    ir: ProjectIR, module: ModuleInfo, fn: FunctionInfo, proto: ResourceProtocol
) -> Tuple[List[_Acquire], List[ast.AST]]:
    """Acquisition sites in ``fn`` for ``proto``; second element is calls
    whose acquired result is immediately discarded."""
    acquires: List[_Acquire] = []
    discarded: List[ast.AST] = []
    managed: Set[ast.Call] = set()

    body_stmts: List[ast.stmt] = []
    stack: List[ast.AST] = list(fn.node.body)
    while stack:
        st = stack.pop()
        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(st, ast.stmt):
            body_stmts.append(st)
        for child in ast.iter_child_nodes(st):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, (ast.excepthandler,)):
                stack.extend(child.body)

    def matches(call: ast.Call) -> bool:
        return _acquire_call_matches(ir, module, fn, call, proto)

    for st in body_stmts:
        if isinstance(st, (ast.With, ast.AsyncWith)) and proto.with_releases:
            for item in st.items:
                ctx = item.context_expr
                if isinstance(ctx, ast.Call) and matches(ctx):
                    managed.add(ctx)  # `with acquire():` — __exit__ releases

    for st in body_stmts:
        if isinstance(st, ast.Assign) and len(st.targets) == 1 and isinstance(
            st.targets[0], ast.Name
        ):
            name = st.targets[0].id
            value = st.value
            candidates = [value]
            if isinstance(value, ast.IfExp):
                candidates = [value.body, value.orelse]
            hit = any(
                isinstance(c, ast.Call) and c not in managed and matches(c)
                for c in candidates
            )
            if not hit and proto.acquire_str_fragment:
                hit = _has_string_fragment(value, proto.acquire_str_fragment)
            if hit:
                acquires.append(_Acquire(st, name, st.lineno, st.col_offset))
                continue
        if isinstance(st, ast.Expr) and isinstance(st.value, ast.Call):
            if st.value not in managed and matches(st.value):
                discarded.append(st.value)
        if proto.acquire_receiver_methods and isinstance(
            st, (ast.Expr, ast.Assign, ast.AnnAssign, ast.AugAssign)
        ):
            # Simple statements only: every stmt (nested included) appears
            # once in body_stmts, so scanning compound statements here
            # would double-count their children's calls.
            for call in _calls_in(st):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in proto.acquire_receiver_methods
                    and isinstance(func.value, ast.Name)
                ):
                    acquires.append(
                        _Acquire(st, func.value.id, call.lineno, call.col_offset)
                    )
    # Deterministic order; a statement can host at most a handful.
    acquires.sort(key=lambda a: (a.line, a.col, a.name))
    return acquires, discarded

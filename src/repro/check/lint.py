"""Determinism lint: an AST pass over the simulator for fidelity hazards.

The reproduction's load-bearing guarantee is that a run is a pure function
of its :class:`~repro.config.SystemConfig` — the paper's per-batch numbers
are only trustworthy if two runs with the same seed produce the same
timeline.  This linter statically flags the hazard classes that historically
break that guarantee in simulation code:

* ``wall-clock`` — real-time sources (``time.time``, ``time.perf_counter``,
  argless ``datetime.now`` and friends) leaking into simulated logic;
* ``unseeded-random`` — the stdlib ``random`` module (global, process-seeded
  state), legacy ``numpy.random`` global functions, and
  ``np.random.default_rng()`` with no seed.  All randomness must flow from
  :func:`repro.sim.rng.spawn_rng` streams;
* ``set-iter`` — iterating directly over a ``set`` literal/comprehension or
  ``set()``/``frozenset()`` call.  Set order is insertion- and
  history-dependent; when the loop body has side effects the event order of
  the run depends on it.  Wrap in ``sorted(...)``;
* ``dict-values`` — a ``for`` *statement* over ``.values()``: legal and
  deterministic on its own (dicts preserve insertion order), but a frequent
  carrier of accidental order dependence when the dict was populated from
  unordered sources.  Comprehensions (usually order-free reductions) are
  not flagged;
* ``set-in-loop`` — a membership test ``x in set(expr)`` inside a loop or
  comprehension: the set is rebuilt on every iteration (the exact hazard of
  the historic ``driver.py`` ``f.page in set(work.pages)`` filter).  Hoist
  the set;
* ``id-sort`` — sorting with ``key=id`` (or a lambda over ``id()``):
  ``id()`` is an address, different every run;
* ``mutable-default`` — mutable default arguments, shared across calls and
  a classic source of state bleeding between "independent" runs.

Suppression: append ``# repro: lint-ok[rule]`` (comma-separated rules, or
bare ``lint-ok`` for all) to the flagged line.  Repository-intentional
exceptions live in the allowlist file (one ``path: rule  # why`` per line);
the default allowlist ships next to this module as ``lint_allow.txt``.

Front end: :func:`lint_paths` over files and directories, rendered as
text, JSON (``docs/schemas/lint.schema.json``) or SARIF
(:mod:`repro.check.sarif`) by ``uvm-repro lint``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence

from .sarif import fingerprints

#: rule id → one-line description (also the rule catalog of the JSON and
#: SARIF reports, documented in docs/static-analysis.md).
RULES: Dict[str, str] = {
    "wall-clock": "real-time source (time.time/perf_counter/datetime.now) in sim code",
    "unseeded-random": "stdlib random, legacy numpy.random globals, or unseeded default_rng()",
    "set-iter": "iteration directly over a set expression (order is history-dependent)",
    "dict-values": "for-statement over dict .values() (order-dependence carrier)",
    "set-in-loop": "membership test rebuilds set(...) every loop iteration",
    "id-sort": "sort key uses id() (address-dependent, differs every run)",
    "mutable-default": "mutable default argument (state shared across calls)",
}

DEFAULT_ALLOWLIST_PATH = Path(__file__).with_name("lint_allow.txt")

_WALLCLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})
_WALLCLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})
_NUMPY_LEGACY_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "uniform", "normal", "poisson",
    "exponential",
})
_SORT_KEY = attrgetter("path", "line", "col", "rule")
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok(?:\[([A-Za-z0-9_,\s-]+)\])?")


@dataclass(frozen=True)
class LintFinding:
    """One flagged hazard."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class AllowEntry:
    """One allowlist line: a path suffix, a rule (or ``*``), a reason."""

    path_suffix: str
    rule: str
    reason: str

    def matches(self, finding) -> bool:
        """True for a finding of this entry's rule in a file whose path
        ends with ``path_suffix``."""
        if self.rule != "*" and self.rule != finding.rule:
            return False
        normalized = finding.path.replace("\\", "/")
        return normalized.endswith(self.path_suffix)


class _HazardVisitor(ast.NodeVisitor):
    """Single-pass visitor implementing every rule.

    Loop context (``for``/``while`` bodies and comprehension generators) is
    tracked with a depth counter so per-iteration hazards (``set-in-loop``)
    only fire where the expression is actually re-evaluated.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[LintFinding] = []
        self._loop_depth = 0

    # ------------------------------------------------------------- helpers

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(LintFinding(
            rule=rule, path=self.path, line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), message=message,
        ))

    @staticmethod
    def _root_name(node: ast.AST) -> Optional[str]:
        """Leftmost name of an attribute chain (``np.random.rand`` → np)."""
        while isinstance(node, ast.Attribute):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    # --------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            # wall-clock: time.<fn>()
            if (
                isinstance(base, ast.Name)
                and base.id == "time"
                and func.attr in _WALLCLOCK_TIME_FNS
            ):
                self._flag(node, "wall-clock",
                           f"time.{func.attr}() reads the host clock; sim code must "
                           "use SimClock")
            # wall-clock: datetime.now() / datetime.datetime.now() etc.
            if func.attr in _WALLCLOCK_DATETIME_FNS and not node.args:
                base_names = {"datetime", "date"}
                if (isinstance(base, ast.Name) and base.id in base_names) or (
                    isinstance(base, ast.Attribute) and base.attr in base_names
                ):
                    self._flag(node, "wall-clock",
                               f"argless datetime {func.attr}() reads the host clock")
            # unseeded-random: stdlib random module calls.
            if isinstance(base, ast.Name) and base.id == "random":
                self._flag(node, "unseeded-random",
                           f"stdlib random.{func.attr}() uses global process state; "
                           "draw from repro.sim.rng.spawn_rng streams")
            # unseeded-random: numpy legacy globals np.random.<fn>(...).
            if (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and self._root_name(base) in ("np", "numpy")
                and func.attr in _NUMPY_LEGACY_RANDOM
            ):
                self._flag(node, "unseeded-random",
                           f"numpy.random.{func.attr}() mutates the legacy global "
                           "generator; use a seeded Generator")
            # unseeded-random: default_rng() without a seed argument.
            if func.attr == "default_rng" and not node.args and not node.keywords:
                self._flag(node, "unseeded-random",
                           "default_rng() with no seed draws OS entropy; pass a "
                           "seed or use repro.sim.rng.spawn_rng")
            # id-sort: somelist.sort(key=id / key=lambda: id(...)).
            if func.attr == "sort":
                self._check_sort_key(node)
        elif isinstance(func, ast.Name):
            if func.id in ("sorted", "min", "max"):
                self._check_sort_key(node)
        # set-in-loop fires on Compare nodes, handled in visit_Compare.
        self.generic_visit(node)

    def _check_sort_key(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            is_id = isinstance(value, ast.Name) and value.id == "id"
            if isinstance(value, ast.Lambda):
                is_id = any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                    for sub in ast.walk(value.body)
                )
            if is_id:
                self._flag(node, "id-sort",
                           "sort key uses id(): object addresses differ run to run")

    # ---------------------------------------------------------- comparisons

    def visit_Compare(self, node: ast.Compare) -> None:
        if self._loop_depth > 0:
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)) and self._is_set_expr(
                    comparator
                ):
                    self._flag(node, "set-in-loop",
                               "membership test rebuilds its set on every "
                               "iteration; hoist the set out of the loop")
        self.generic_visit(node)

    # --------------------------------------------------------------- loops

    def _check_iter_expr(self, iter_node: ast.AST, statement: bool) -> None:
        if self._is_set_expr(iter_node):
            self._flag(iter_node, "set-iter",
                       "iterating a set expression: order is insertion-history "
                       "dependent; wrap in sorted(...)")
        elif (
            statement
            and isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr == "values"
            and not iter_node.args
            and not iter_node.keywords
        ):
            self._flag(iter_node, "dict-values",
                       "for-statement over .values(): make the ordering explicit "
                       "(sorted(...) or .items()) if the body has side effects")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter_expr(node.iter, statement=True)
        # The iterable itself is evaluated once, outside the loop.
        self.visit(node.iter)
        self.visit(node.target)
        self._loop_depth += 1
        for child in node.body + node.orelse:
            self.visit(child)
        self._loop_depth -= 1

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:  # pragma: no cover
        self.visit_For(node)  # type: ignore[arg-type]

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._loop_depth += 1
        for child in node.body + node.orelse:
            self.visit(child)
        self._loop_depth -= 1

    def _visit_comprehension(self, node) -> None:
        for i, gen in enumerate(node.generators):
            self._check_iter_expr(gen.iter, statement=False)
            if i == 0:
                # The first generator's iterable is evaluated once.
                self.visit(gen.iter)
            else:
                self._loop_depth += 1
                self.visit(gen.iter)
                self._loop_depth -= 1
        self._loop_depth += 1
        for gen in node.generators:
            self.visit(gen.target)
            for cond in gen.ifs:
                self.visit(cond)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self._loop_depth -= 1

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # ----------------------------------------------------------- functions

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._flag(default, "mutable-default",
                           "mutable default argument is shared across calls; "
                           "default to None and build inside")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


# ------------------------------------------------------------------ front end


def suppressed_rules(line: str) -> Optional[FrozenSet[str]]:
    """Rules a ``# repro: lint-ok[...]`` comment on ``line`` names.

    ``None`` when the line carries no suppression; ``{"*"}`` for a bare
    ``lint-ok``, which suppresses every rule.
    """
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return None
    if match.group(1) is None:
        return frozenset({"*"})
    return frozenset(r.strip() for r in match.group(1).split(","))


def drop_suppressed(findings: Sequence, sources: Dict[str, Sequence[str]]) -> list:
    """Drop findings whose source line suppresses their rule.

    ``sources`` maps a finding's path to its source lines.  The one
    suppression filter: :func:`lint_source` and :func:`lint_paths` both
    call it.
    """
    out = []
    for finding in findings:
        lines = sources.get(finding.path, ())
        if 1 <= finding.line <= len(lines):
            named = suppressed_rules(lines[finding.line - 1])
            if named is not None and ("*" in named or finding.rule in named):
                continue
        out.append(finding)
    return out


def raw_findings(source: str, path: str = "<string>") -> List[LintFinding]:
    """Every hazard in one module's source, before suppressions and the
    allowlist (raises :class:`SyntaxError` on unparsable source)."""
    visitor = _HazardVisitor(path)
    visitor.visit(ast.parse(source, filename=path))
    return visitor.findings


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one module's source text; returns findings (suppressions applied)."""
    findings = drop_suppressed(raw_findings(source, path), {path: source.splitlines()})
    return sorted(findings, key=_SORT_KEY)


class LintInputError(ValueError):
    """A lint target that cannot be read: missing, undecodable, or not
    valid Python.  The CLI reports it and exits 2 rather than calling the
    unread input clean."""


def python_files(paths: Sequence) -> List[Path]:
    """The ``.py`` files under ``paths`` (directories recursively), each
    once, as absolute paths."""
    out: List[Path] = []
    for entry in (Path(p) for p in paths):
        if entry.is_dir():
            out.extend(sorted(entry.resolve().rglob("*.py")))
        elif entry.is_file():
            out.append(entry.resolve())
        else:
            raise LintInputError(f"{entry}: no such file or directory")
    return list(dict.fromkeys(out))


@dataclass
class LintReport:
    """The findings one lint run kept, plus the source lines they point
    at (fingerprints hash the flagged line's text)."""

    findings: List[LintFinding]
    sources: Dict[str, List[str]]

    @property
    def ok(self) -> bool:
        return not self.findings


def lint_paths(paths: Sequence, allowlist: Sequence[AllowEntry] = ()) -> LintReport:
    """Lint every ``.py`` file under ``paths``: raw findings, then line
    suppressions, then the allowlist."""
    findings: List[LintFinding] = []
    sources: Dict[str, List[str]] = {}
    for file_path in python_files(paths):
        path = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            findings.extend(raw_findings(source, path))
        except SyntaxError as exc:
            where = f"{path}:{exc.lineno}"
            raise LintInputError(f"{where}: cannot parse: {exc.msg}") from exc
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            raise LintInputError(f"{path}: cannot read: {exc}") from exc
        sources[path] = source.splitlines()
    findings = [
        f for f in drop_suppressed(findings, sources)
        if not any(entry.matches(f) for entry in allowlist)
    ]
    return LintReport(sorted(findings, key=_SORT_KEY), sources)


def render_report(report: LintReport) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [str(f) for f in report.findings]
    lines.append(f"{len(report.findings)} finding(s)" if report.findings
                 else "clean: no determinism hazards found")
    return "\n".join(lines)


def report_to_json_dict(report: LintReport) -> dict:
    """The machine-readable report (``docs/schemas/lint.schema.json``)."""
    prints = fingerprints(report.findings, report.sources)
    return {
        "version": 2,
        "findings": [
            dict(asdict(f), fingerprint=fp)
            for f, fp in zip(report.findings, prints)
        ],
        "count": len(report.findings),
        "rules": dict(RULES),
        "ok": report.ok,
    }


def load_allowlist(path) -> List[AllowEntry]:
    """Parse an allowlist file: ``path-suffix: rule  # justification``."""
    entries: List[AllowEntry] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, reason = line.partition("#")
        body = body.strip()
        if ":" not in body:
            raise ValueError(f"malformed allowlist line (missing ':'): {raw!r}")
        path_suffix, _, rule = body.rpartition(":")
        path_suffix = path_suffix.strip()
        rule = rule.strip()
        if rule != "*" and rule not in RULES:
            raise ValueError(f"allowlist names unknown rule {rule!r}: {raw!r}")
        entries.append(
            AllowEntry(path_suffix=path_suffix, rule=rule, reason=reason.strip())
        )
    return entries

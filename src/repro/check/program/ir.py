"""Project IR: module index, symbol tables, and the intra-package call graph.

The whole-program passes (:mod:`repro.check.program`) need to see across
module boundaries — a resource acquired in one function and released by a
helper in another file.  This module builds the shared substrate they
walk:

* :class:`ModuleInfo` — one parsed module: source, AST, an import table
  mapping every local alias to its fully qualified target, the names of
  its module-level bindings, and every function/method as a
  :class:`FunctionInfo`;
* :class:`ProjectIR` — the package as a whole: the module index keyed by
  dotted name, a flat function table keyed by qualified name, and the
  direct call graph (``qname → set of callee qnames``) produced by
  :func:`resolve_call` over every call site.

Resolution is intentionally *direct-call* precise: plain names, imported
names (including one level of re-export chasing through ``__init__``
modules), dotted module attributes, ``self.``/``cls.`` methods of the
enclosing class, and class instantiation (edged to ``__init__``).  Dynamic
dispatch (``registry[name]()``, instance attributes holding callables) is
left unresolved — the passes treat unresolved calls conservatively instead
of guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Fully qualified callee (``repro.sim.clock.SimClock.advance``) when the
    #: target resolved statically, else ``None``.
    callee: Optional[str]
    #: Textual form of the call target (``self._service_batch`` /
    #: ``pool.map``) — kept for diagnostics and name-based heuristics.
    raw: str

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qname: str
    module: str
    #: Dotted name inside the module (``UvmDriver.service_batch``).
    local_name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Positional parameter names, ``self``/``cls`` included for methods.
    params: List[str] = field(default_factory=list)
    #: Enclosing class local name, or None for module-level functions.
    owner_class: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed project."""

    name: str
    path: Path
    source: str
    tree: ast.Module
    #: local alias → fully qualified target.  Targets are either module
    #: names (``import x.y as z`` → ``z: x.y``) or symbol names
    #: (``from .spec import CampaignCell`` → ``repro.campaign.spec.CampaignCell``).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class local name → {method name → FunctionInfo}
    classes: Dict[str, Dict[str, FunctionInfo]] = field(default_factory=dict)
    #: Names bound by module-level assignments.
    globals: Set[str] = field(default_factory=set)

    @property
    def lines(self) -> List[str]:
        return self.source.splitlines()


@dataclass
class ProjectIR:
    """The analyzed project: modules, functions, and the direct call graph."""

    root: Path
    #: Dotted package prefix of the analyzed tree ("repro", or "" for a
    #: loose collection of standalone files).
    package: str
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    call_graph: Dict[str, Set[str]] = field(default_factory=dict)

    # -------------------------------------------------------------- queries

    def module_of(self, qname: str) -> Optional[ModuleInfo]:
        """The module containing a qualified function/global name."""
        parts = qname.split(".")
        for cut in range(len(parts), 0, -1):
            mod = self.modules.get(".".join(parts[:cut]))
            if mod is not None:
                return mod
        return None

    def stats(self) -> Dict[str, int]:
        edges = sum(len(v) for v in self.call_graph.values())
        resolved = sum(
            1 for f in self.functions.values() for c in f.calls if c.callee
        )
        total = sum(len(f.calls) for f in self.functions.values())
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "call_sites": total,
            "resolved_calls": resolved,
            "call_edges": edges,
        }


# ---------------------------------------------------------------- building


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_imports(module_name: str, tree: ast.Module) -> Dict[str, str]:
    table: Dict[str, str] = {}
    pkg_parts = module_name.split(".")[:-1]  # the containing package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative: level 1 = containing package, 2 = its parent, …
                base_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                if node.module:
                    base_parts = base_parts + node.module.split(".")
                base = ".".join(base_parts)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def _positional_params(node) -> List[str]:
    args = node.args
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names += [a.arg for a in args.args]
    return names


def _index_module(name: str, path: Path, source: str) -> ModuleInfo:
    tree = ast.parse(source, filename=str(path))
    info = ModuleInfo(
        name=name, path=path, source=source, tree=tree,
        imports=_collect_imports(name, tree),
    )

    def add_function(node, local_name: str, owner: Optional[str]) -> None:
        fn = FunctionInfo(
            qname=f"{name}.{local_name}",
            module=name,
            local_name=local_name,
            node=node,
            params=_positional_params(node),
            owner_class=owner,
        )
        info.functions[local_name] = fn
        if owner is not None:
            info.classes.setdefault(owner, {})[node.name] = fn

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, node.name, owner=None)
        elif isinstance(node, ast.ClassDef):
            info.classes.setdefault(node.name, {})
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(sub, f"{node.name}.{sub.name}", owner=node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    info.globals.add(target.id)
    return info


def _chase_reexport(ir: ProjectIR, symbol: str, depth: int = 0) -> str:
    """Follow ``from .x import y`` re-export chains to the defining module."""
    if depth > 4:
        return symbol
    head, _, leaf = symbol.rpartition(".")
    mod = ir.modules.get(head)
    if mod is None:
        return symbol
    if leaf in mod.functions or leaf in mod.classes or leaf in mod.globals:
        return symbol
    onward = mod.imports.get(leaf)
    if onward is not None and onward != symbol:
        return _chase_reexport(ir, onward, depth + 1)
    return symbol


def resolve_symbol(ir: ProjectIR, module: ModuleInfo, dotted: str) -> Optional[str]:
    """Resolve a dotted name used in ``module`` to a project qualified name.

    Returns the qname of a function, class (``module.Class``), or global the
    name denotes, or ``None`` when it points outside the project or cannot
    be resolved statically.
    """
    head, _, rest = dotted.partition(".")
    # Module-local definitions win over imports (shadowing).
    if not rest:
        if head in module.functions:
            return module.functions[head].qname
        if head in module.classes:
            return f"{module.name}.{head}"
    else:
        if head in module.classes and rest in module.classes[head]:
            return module.classes[head][rest].qname
    target = module.imports.get(head)
    if target is None:
        return None
    full = f"{target}.{rest}" if rest else target
    full = _chase_reexport(ir, full)
    # A module name, a symbol in a known module, or nothing we know.
    if full in ir.modules:
        return full
    holder = ir.module_of(full)
    if holder is None:
        return None
    remainder = full[len(holder.name) + 1:]
    if not remainder:
        return full
    if remainder in holder.functions or remainder in holder.classes:
        return f"{holder.name}.{remainder}"
    if remainder in holder.globals:
        return f"{holder.name}.{remainder}"
    first, _, second = remainder.partition(".")
    if first in holder.classes and second and second in holder.classes[first]:
        return holder.classes[first][second].qname
    return None


def resolve_call(ir: ProjectIR, module: ModuleInfo, fn: FunctionInfo,
                 node: ast.Call) -> Optional[str]:
    """Resolve one call expression to a callee qname (or None)."""
    raw = _dotted(node.func)
    if raw is None:
        # self.method() — func is Attribute over Name 'self'/'cls' handled by
        # _dotted already; anything else (subscripts, call results) is dynamic.
        return None
    head, _, rest = raw.partition(".")
    if head in ("self", "cls") and fn.owner_class is not None and rest:
        methods = module.classes.get(fn.owner_class, {})
        first, _, _deeper = rest.partition(".")
        target = methods.get(first)
        if target is not None and not _deeper:
            return target.qname
        return None
    resolved = resolve_symbol(ir, module, raw)
    if resolved is None:
        return None
    # Instantiating a project class edges to its __init__ when one exists.
    holder = ir.module_of(resolved)
    if holder is not None:
        local = resolved[len(holder.name) + 1:]
        if local in holder.classes:
            init = holder.classes[local].get("__init__")
            return init.qname if init is not None else resolved
    return resolved


class _CallCollector(ast.NodeVisitor):
    """Collect every Call inside one function body (not nested defs)."""

    def __init__(self) -> None:
        self.calls: List[ast.Call] = []

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node) -> None:  # do not descend into nested defs
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef


def _derive_module_name(root: Path, file_path: Path, package: str) -> str:
    rel = file_path.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if package:
        parts = [package] + parts
    return ".".join(parts) if parts else package


def _package_name_of(root: Path) -> str:
    """Dotted package name of ``root`` by walking up ``__init__.py`` parents."""
    if not (root / "__init__.py").exists():
        return ""
    parts = [root.name]
    parent = root.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def build_project_ir(paths: Iterable) -> ProjectIR:
    """Parse and index every ``.py`` file under ``paths`` into one IR.

    A single package directory is rooted at that package (module names get
    its dotted prefix, e.g. ``repro.core.driver``); loose files are indexed
    standalone under their stem.  Files that fail to parse are skipped — the
    engine surfaces those as findings separately.
    """
    path_list = [Path(p) for p in paths]
    root: Optional[Path] = None
    package = ""
    if len(path_list) == 1 and path_list[0].is_dir():
        root = path_list[0].resolve()
        package = _package_name_of(root)

    ir = ProjectIR(root=root or Path("."), package=package)

    files: List[Tuple[str, Path]] = []
    seen: Set[Path] = set()
    for entry in path_list:
        entry = entry.resolve()
        if entry.is_dir():
            for file_path in sorted(entry.rglob("*.py")):
                if file_path in seen:
                    continue
                seen.add(file_path)
                base = root if root is not None else entry
                pkg = package if root is not None else _package_name_of(entry)
                files.append((_derive_module_name(base, file_path, pkg), file_path))
        else:
            if entry in seen:
                continue
            seen.add(entry)
            files.append((entry.stem, entry))

    for mod_name, file_path in files:
        try:
            source = file_path.read_text(encoding="utf-8")
            info = _index_module(mod_name, file_path, source)
        except (SyntaxError, UnicodeDecodeError, OSError):
            continue
        ir.modules[mod_name] = info
        for _local, fn in sorted(info.functions.items()):
            ir.functions[fn.qname] = fn

    # Second phase: resolve every call site now that all modules are known.
    for _name, info in sorted(ir.modules.items()):
        for _local, fn in sorted(info.functions.items()):
            collector = _CallCollector()
            for stmt in fn.node.body:
                collector.visit(stmt)
            edges = ir.call_graph.setdefault(fn.qname, set())
            for call in collector.calls:
                callee = resolve_call(ir, info, fn, call)
                raw = _dotted(call.func) or "<dynamic>"
                fn.calls.append(CallSite(node=call, callee=callee, raw=raw))
                if callee is not None and callee in ir.functions:
                    edges.add(callee)
    return ir

"""Whole-program model and call graph for the flow analyses.

:mod:`repro.analyze.lint` sees one file at a time; the interprocedural
analyses in :mod:`repro.analyze.flow` need to see the *program*: which
function calls which, what a name resolves to through the import graph,
and where processes are forked.  This module builds that model once and
hands it to both the taint engine and the fork-purity engine.

The model is deliberately static and conservative:

* a :class:`Program` is every ``.py`` file under one package root,
  parsed once, with per-module import tables, module-level (global)
  variable names, and every function/method indexed by dotted qualname
  (``repro.network.packet.Packet.describe``);
* call resolution handles the cases that matter in this codebase —
  module-local calls, ``from x import f`` / ``import x as y`` aliases,
  ``self.method()`` within a class (following statically-resolvable
  bases), ``Class.method()``, and ``module.func()`` — and falls back to
  *by-name* method matching for ``obj.method()`` on a receiver of
  unknown type (every known method of that name is a candidate, capped
  so wildly common names don't connect everything to everything);
* calls that cannot be resolved at all (``fn(*args)`` through a
  variable, the kernel's event dispatch) produce no edges: the engines
  treat them conservatively at the call site instead.

Fork boundaries are first-class: every ``*.Process(target=...)``
construction site, and every ``pool_map``/``supervised_map`` fan-out
call (whose first argument runs in forked children), is recorded as a
:class:`ForkSite` so the purity analysis knows exactly which functions
run inside forked children.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``obj.method()`` on an unknown receiver matches every known method of
#: that name — but only when the name is rare enough to be meaningful.
BY_NAME_CAP = 12

#: Process fan-outs whose first positional argument is the child's body.
FANOUT_CALLS = ("pool_map", "supervised_map")


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the program."""

    qualname: str  # "repro.network.packet.Packet.describe"
    module: str  # "repro.network.packet"
    path: str  # source file (as given to Program.load)
    name: str  # bare name ("describe")
    class_name: Optional[str]  # enclosing class, None for module-level
    params: Tuple[str, ...]  # positional-or-keyword parameter names, in order
    lineno: int
    node: ast.AST = field(repr=False, compare=False, hash=False)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def shortname(self) -> str:
        """Class-qualified name without the module prefix."""
        return f"{self.class_name}.{self.name}" if self.class_name else self.name


@dataclass
class ClassInfo:
    """One class definition: its methods and statically-named bases."""

    qualname: str
    name: str
    module: str
    bases: List[str]  # dotted base names as written (resolved lazily)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file and its name-resolution tables."""

    name: str  # dotted module name
    path: str
    tree: ast.Module = field(repr=False)
    source: str = field(repr=False, default="")
    # local binding -> fully dotted target ("np" -> "numpy",
    # "Packet" -> "repro.network.packet.Packet")
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)  # local qual
    classes: Dict[str, ClassInfo] = field(default_factory=dict)  # bare name
    global_names: Set[str] = field(default_factory=set)  # module-level variables


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: caller -> callee at a source line."""

    caller: str
    callee: str
    path: str
    lineno: int
    by_name: bool  # resolved only by method-name matching


@dataclass(frozen=True)
class ForkSite:
    """A ``Process(target=...)`` construction or a fan-out call: a fork
    boundary."""

    caller: str  # qualname of the function containing the call
    target: Optional[str]  # qualname of the resolved target function
    path: str
    lineno: int
    call: ast.Call = field(repr=False, compare=False, hash=False)


class CallTarget:
    """Resolution result for one call expression."""

    __slots__ = ("functions", "display", "resolved", "by_name", "constructs")

    def __init__(
        self,
        functions: Sequence[FunctionInfo] = (),
        display: str = "",
        resolved: str = "",
        by_name: bool = False,
        constructs: Optional[ClassInfo] = None,
    ) -> None:
        self.functions = list(functions)
        self.display = display  # the call as written ("lint.main")
        self.resolved = resolved  # fully dotted resolution ("repro.analyze.lint.main")
        self.by_name = by_name
        self.constructs = constructs


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain ('' if not one)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _module_name(root: Path, package: str, file: Path) -> str:
    rel = file.relative_to(root)
    parts = list(rel.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join([package, *parts]) if parts else package


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Resolve a ``from ...x import y`` module reference to a dotted name."""
    if level == 0:
        return target or ""
    # level 1 = the module's own package, each extra level goes one up
    base = module.split(".")[: -(level)] if level <= module.count(".") + 1 else []
    if target:
        base = [*base, target]
    return ".".join(base)


def _collect_global_names(tree: ast.Module) -> Set[str]:
    """Names bound at module level (outside any function/class body)."""
    names: Set[str] = set()

    def scan(stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    _bind_target(target, names)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                _bind_target(stmt.target, names)
            elif isinstance(stmt, (ast.If, ast.Try, ast.For, ast.While, ast.With)):
                scan(getattr(stmt, "body", []))
                scan(getattr(stmt, "orelse", []))
                scan(getattr(stmt, "finalbody", []))
                for handler in getattr(stmt, "handlers", []):
                    scan(handler.body)

    scan(tree.body)
    return names


def _bind_target(target: ast.AST, names: Set[str]) -> None:
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(element, names)


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


class Program:
    """Every module under one package root, indexed for resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}  # dotted qualname -> info
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}

    @classmethod
    def load(cls, root: str, package: str = "repro") -> "Program":
        """Parse every ``.py`` under ``root`` as package ``package``."""
        program = cls()
        root_path = Path(root)
        for file in sorted(root_path.rglob("*.py")):
            source = file.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(file))
            except SyntaxError:
                continue  # the lint reports AN100 for these
            name = _module_name(root_path, package, file)
            program._add_module(name, str(file), tree, source)
        return program

    @classmethod
    def from_sources(
        cls, sources: Dict[str, Tuple[str, str]]
    ) -> "Program":
        """Build from in-memory sources: ``{module_name: (path, source)}``.

        Test seam — lets planted-leak tests assemble a program without
        touching the filesystem.
        """
        program = cls()
        for name in sorted(sources):
            path, source = sources[name]
            tree = ast.parse(source, filename=path)
            program._add_module(name, path, tree, source)
        return program

    # -- construction ----------------------------------------------------
    def _add_module(self, name: str, path: str, tree: ast.Module, source: str) -> None:
        module = ModuleInfo(name=name, path=path, tree=tree, source=source)
        self.modules[name] = module
        module.global_names = _collect_global_names(tree)
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    binding = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[binding] = target
            elif isinstance(stmt, ast.ImportFrom):
                base = _resolve_relative(name, stmt.level, stmt.module)
                for alias in stmt.names:
                    binding = alias.asname or alias.name
                    module.imports[binding] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{name}.{stmt.name}",
                    name=stmt.name,
                    module=name,
                    bases=[dotted_name(b) for b in stmt.bases if dotted_name(b)],
                )
                module.classes[stmt.name] = info
                self.classes[info.qualname] = info
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(module, sub, class_name=stmt.name)

    def _add_function(
        self,
        module: ModuleInfo,
        node: ast.AST,
        class_name: Optional[str],
    ) -> None:
        local = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            qualname=f"{module.name}.{local}",
            module=module.name,
            path=module.path,
            name=node.name,
            class_name=class_name,
            params=_param_names(node),
            lineno=node.lineno,
            node=node,
        )
        module.functions[local] = info
        self.functions[info.qualname] = info
        if class_name is not None:
            self.methods_by_name.setdefault(node.name, []).append(info)
            cls_info = module.classes.get(class_name)
            if cls_info is not None:
                cls_info.methods[node.name] = info
        # register nested defs too, so fork-reachability can descend into
        # worker closures (they are conservatively reachable from their
        # parent; see CallGraph.build)
        for sub in getattr(node, "body", []):
            self._add_nested(module, node, sub, prefix=f"{module.name}.{local}")

    def _add_nested(
        self, module: ModuleInfo, parent: ast.AST, stmt: ast.stmt, prefix: str
    ) -> None:
        """Register function defs nested directly inside ``parent``'s body."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=f"{prefix}.<locals>.{stmt.name}",
                module=module.name,
                path=module.path,
                name=stmt.name,
                class_name=None,
                params=_param_names(stmt),
                lineno=stmt.lineno,
                node=stmt,
            )
            self.functions[info.qualname] = info
            for sub in stmt.body:
                self._add_nested(module, stmt, sub, prefix=info.qualname)
            return
        for block in ("body", "orelse", "finalbody"):
            for sub in getattr(stmt, block, []):
                if isinstance(sub, ast.stmt):
                    self._add_nested(module, parent, sub, prefix)
        for handler in getattr(stmt, "handlers", []):
            for sub in handler.body:
                self._add_nested(module, parent, sub, prefix)

    # -- resolution ------------------------------------------------------
    def _package_roots(self) -> set:
        """Top-level package names covered by this program."""
        return {name.split(".")[0] for name in self.modules}

    def resolve_name(self, module: ModuleInfo, name: str) -> str:
        """Fully dotted resolution of a bare name in a module ('' if unknown)."""
        if name in module.functions:
            return f"{module.name}.{name}"
        if name in module.classes:
            return f"{module.name}.{name}"
        if name in module.imports:
            return module.imports[name]
        if name in module.global_names:
            return f"{module.name}.{name}"
        return ""

    def resolve_dotted(self, module: ModuleInfo, dotted: str) -> str:
        """Resolve the leading binding of a dotted chain through imports."""
        if not dotted:
            return ""
        head, sep, rest = dotted.partition(".")
        resolved_head = self.resolve_name(module, head)
        if not resolved_head:
            return dotted
        return f"{resolved_head}.{rest}" if sep else resolved_head

    def class_method(
        self, cls_info: Optional[ClassInfo], method: str, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Look up ``method`` on a class, walking statically-known bases."""
        if cls_info is None or _depth > 8:
            return None
        if method in cls_info.methods:
            return cls_info.methods[method]
        module = self.modules.get(cls_info.module)
        for base in cls_info.bases:
            resolved = self.resolve_dotted(module, base) if module else base
            found = self.class_method(self.classes.get(resolved), method, _depth + 1)
            if found is not None:
                return found
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        enclosing: Optional[FunctionInfo] = None,
    ) -> CallTarget:
        """Resolve one call expression to candidate callees."""
        func = call.func
        display = dotted_name(func)
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(module, func.id)
            if resolved in self.functions:
                return CallTarget([self.functions[resolved]], display, resolved)
            if resolved in self.classes:
                cls_info = self.classes[resolved]
                init = self.class_method(cls_info, "__init__")
                return CallTarget(
                    [init] if init else [], display, resolved, constructs=cls_info
                )
            return CallTarget([], display, resolved)
        if isinstance(func, ast.Attribute):
            attr = func.attr
            # module.func / Class.method through the import table
            if display:
                resolved = self.resolve_dotted(module, display)
                if resolved in self.functions:
                    return CallTarget([self.functions[resolved]], display, resolved)
                owner = resolved.rsplit(".", 1)[0] if "." in resolved else ""
                if owner in self.classes:
                    found = self.class_method(self.classes[owner], attr)
                    if found is not None:
                        return CallTarget([found], display, resolved)
            # self.method() / cls.method()
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and enclosing is not None
                and enclosing.class_name is not None
            ):
                own_cls = self.classes.get(f"{enclosing.module}.{enclosing.class_name}")
                found = self.class_method(own_cls, attr)
                if found is not None:
                    return CallTarget([found], display, found.qualname)
            # receiver is a known *external* module (``time.sleep`` with
            # ``import time``): the callee lives outside the program, so
            # by-name matching would be pure noise — stop here
            base = dotted_name(func.value)
            head = base.split(".")[0] if base else ""
            if head and head in module.imports:
                imported = module.imports[head].split(".")[0]
                if imported not in self._package_roots():
                    return CallTarget([], display)
            # unknown receiver: every known method of that name
            candidates = self.methods_by_name.get(attr, [])
            if candidates and len(candidates) <= BY_NAME_CAP and not attr.startswith("__"):
                return CallTarget(list(candidates), display or attr, "", by_name=True)
        return CallTarget([], display)


class CallGraph:
    """Resolved call edges plus fork sites over one :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.edges: Dict[str, List[CallEdge]] = {}
        self.fork_sites: List[ForkSite] = []

    @classmethod
    def build(cls, program: Program) -> "CallGraph":
        graph = cls(program)
        for qualname, info in program.functions.items():
            module = program.modules[info.module]
            edges: List[CallEdge] = []
            # ast.walk descends into nested defs too; their calls appear on
            # both the parent and the nested function's own edge list,
            # which only over-approximates reachability (safe direction)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    graph._note_fork_site(module, info, node)
                    target = program.resolve_call(module, node, info)
                    for callee in target.functions:
                        edges.append(
                            CallEdge(
                                caller=qualname,
                                callee=callee.qualname,
                                path=info.path,
                                lineno=node.lineno,
                                by_name=target.by_name,
                            )
                        )
            # a nested def is conservatively "called" by its parent: it
            # only exists to run on the parent's behalf (callback, worker
            # loop body), so reachability must descend into it
            for nested_qual in program.functions:
                if nested_qual.startswith(f"{qualname}.<locals>.") and (
                    nested_qual.count(".<locals>.") == qualname.count(".<locals>.") + 1
                ):
                    edges.append(
                        CallEdge(
                            caller=qualname,
                            callee=nested_qual,
                            path=info.path,
                            lineno=program.functions[nested_qual].lineno,
                            by_name=False,
                        )
                    )
            graph.edges[qualname] = edges
        return graph

    def _note_fork_site(
        self, module: ModuleInfo, info: FunctionInfo, call: ast.Call
    ) -> None:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name == "Process":
            values = [kw.value for kw in call.keywords if kw.arg == "target"]
        elif name in FANOUT_CALLS:
            values = call.args[:1]
        else:
            return
        target_qual: Optional[str] = None
        for value in values:
            resolved = ""
            if isinstance(value, ast.Name):
                resolved = self.program.resolve_name(module, value.id)
                if not resolved:
                    # a function nested in the enclosing caller
                    nested = f"{info.qualname}.<locals>.{value.id}"
                    if nested in self.program.functions:
                        resolved = nested
            elif isinstance(value, ast.Attribute):
                resolved = self.program.resolve_dotted(module, dotted_name(value))
            if resolved in self.program.functions:
                target_qual = resolved
        self.fork_sites.append(
            ForkSite(
                caller=info.qualname,
                target=target_qual,
                path=info.path,
                lineno=call.lineno,
                call=call,
            )
        )

    def callers_of(self) -> Dict[str, List[str]]:
        """Reverse adjacency: callee qualname -> caller qualnames."""
        reverse: Dict[str, List[str]] = {}
        for caller, edges in self.edges.items():
            for edge in edges:
                reverse.setdefault(edge.callee, []).append(caller)
        return reverse

    def reachable_from(
        self, entries: Sequence[str], include_by_name: bool = True
    ) -> Dict[str, Tuple[Optional[str], int]]:
        """BFS closure: qualname -> (parent qualname, call line) for chains.

        Entry points map to ``(None, 0)``.  Deterministic: the worklist
        is processed in sorted insertion order.
        """
        parents: Dict[str, Tuple[Optional[str], int]] = {}
        frontier = sorted(set(e for e in entries if e in self.program.functions))
        for entry in frontier:
            parents[entry] = (None, 0)
        while frontier:
            next_frontier: List[str] = []
            for qualname in frontier:
                for edge in self.edges.get(qualname, []):
                    if edge.by_name and not include_by_name:
                        continue
                    if edge.callee not in parents:
                        parents[edge.callee] = (qualname, edge.lineno)
                        next_frontier.append(edge.callee)
            frontier = sorted(set(next_frontier))
        return parents

    def chain(
        self, parents: Dict[str, Tuple[Optional[str], int]], qualname: str
    ) -> List[str]:
        """Entry-to-function qualname chain for a reachability result."""
        chain: List[str] = []
        cursor: Optional[str] = qualname
        seen: Set[str] = set()
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            chain.append(cursor)
            cursor = parents.get(cursor, (None, 0))[0]
        chain.reverse()
        return chain


__all__ = [
    "BY_NAME_CAP",
    "CallEdge",
    "CallGraph",
    "CallTarget",
    "ClassInfo",
    "ForkSite",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "dotted_name",
]

"""Whole-program graphs: module imports and a name-resolved call graph.

The file-local rules (REP001, REP002, REP006) see one AST at a time, so
a sync helper that calls ``time.sleep`` two hops below an ``async
def``, an illegal ``core -> serving`` import, or a replica op nobody
sends all pass a per-file lint. This module grows the analysis layer into
whole-program shape, the same way PR 6 grew per-query detection into
batch array programs: one deterministic pass over every
:class:`~repro.analysis.context.SourceFile` builds

- a **module import graph** (:class:`ModuleGraph`) — one node per
  project file, one edge per ``import``/``from .. import`` statement
  that resolves to another project file, tagged with its line and
  whether it is *deferred* (written inside a function body, so it does
  not execute at load time); and
- an **intra-project call graph** (:class:`CallGraph`) — one node per
  module-level function or method, edges resolved through each file's
  import table (:meth:`~repro.analysis.context.FileContext.resolve_call`),
  ``self.``/``cls.`` method lookup with base-class chasing, package
  ``__init__`` re-exports, and a unique-name fallback for attribute
  calls with project-style (underscored) names. External calls that are
  rooted in an import (``time.sleep``, ``subprocess.run``) are kept per
  function so closure rules (REP008) can test them against a policy
  table without the graph itself taking a policy position.

Both graphs iterate in sorted order everywhere, so two runs over the
same sources build equal graphs and the rules report in a stable order.
Construction is cached per run, keyed by the content hashes of the
input files — repeated ``lint_project`` calls in one process (the test
suite, or the four graph rules of one lint) pay for parsing once.

The project rules REP007 (layering), REP008 (transitive blocking),
REP009 (wire-protocol conformance), and REP010 (dead public API) are
all views over these graphs.
"""

from __future__ import annotations

import ast
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.analysis.context import SourceFile

#: Single-name builtin calls worth recording as externals (the blocking
#: builtins REP002/REP008 police); everything else single-name is noise.
_BUILTIN_EXTERNALS = frozenset({"open", "input"})

#: How many ``__init__`` re-export hops / base-class links to chase.
_RESOLVE_DEPTH = 5

#: Bounded construction cache: content-hash key -> built graphs.
_CACHE_CAPACITY = 4
_CACHE: "OrderedDict[tuple[tuple[str, str], ...], ProjectGraphs]" = OrderedDict()


def subsystem_of(relpath: str) -> str:
    """The architecture subsystem a package-relative path belongs to.

    Directories name their subsystem (``serving/router.py`` ->
    ``serving``, ``analysis/rules/rep001_determinism.py`` ->
    ``analysis``); top-level modules are their own (``errors.py`` ->
    ``errors``, ``cli.py`` -> ``cli``); the package root ``__init__.py``
    is the pseudo-subsystem ``root``. Benchmark sources, linted under a
    ``benchmarks/`` prefix, form the ``benchmarks`` subsystem.
    """
    head, sep, _ = relpath.partition("/")
    if sep:
        return head
    if relpath == "__init__.py":
        return "root"
    return relpath[:-3] if relpath.endswith(".py") else relpath


def module_name(relpath: str) -> str:
    """Dotted module name of a package-relative path.

    ``serving/router.py`` -> ``repro.serving.router``; ``__init__.py``
    -> ``repro``; ``benchmarks/bench_x.py`` -> ``benchmarks.bench_x``
    (benchmark scripts are not part of the installed package).
    """
    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    if stem == "__init__":
        return "repro"
    if stem.endswith("/__init__"):
        stem = stem[: -len("/__init__")]
    dotted = stem.replace("/", ".")
    if dotted.startswith("benchmarks."):
        return dotted
    return f"repro.{dotted}"


@dataclass(frozen=True, order=True)
class ImportEdge:
    """One resolved intra-project import statement."""

    source: str  #: importing file (package-relative path)
    target: str  #: imported file (package-relative path)
    line: int  #: 1-based line of the import statement
    deferred: bool  #: written inside a function body (not load-time)


@dataclass(frozen=True, order=True)
class FunctionNode:
    """One module-level function or method in the call graph."""

    node_id: str  #: ``relpath:qualname`` (``serving/router.py:Router.detect``)
    path: str
    qualname: str
    line: int
    is_async: bool


@dataclass(frozen=True, order=True)
class CallSite:
    """One resolved intra-project call: ``caller`` invokes ``callee``."""

    caller: str  #: caller node id
    callee: str  #: callee node id
    line: int  #: 1-based line of the call expression


@dataclass(frozen=True, order=True)
class ExternalCall:
    """One import-rooted call that leaves the project (``time.sleep``)."""

    caller: str  #: caller node id
    name: str  #: resolved dotted name of the external target
    line: int


class ModuleGraph:
    """The project's file-level import graph (sorted, immutable)."""

    def __init__(self, modules: Sequence[str], edges: Sequence[ImportEdge]) -> None:
        self.modules: tuple[str, ...] = tuple(sorted(modules))
        self.edges: tuple[ImportEdge, ...] = tuple(sorted(edges))
        by_source: dict[str, list[ImportEdge]] = {}
        for edge in self.edges:
            by_source.setdefault(edge.source, []).append(edge)
        self._by_source = {source: tuple(found) for source, found in by_source.items()}

    def imports_of(self, relpath: str) -> tuple[ImportEdge, ...]:
        """Outgoing import edges of one file, sorted."""
        return self._by_source.get(relpath, ())

    def load_time_cycles(self) -> list[tuple[str, ...]]:
        """Cycles among *load-time* (non-deferred) imports.

        Deferred imports execute on first call, not at module load, so
        they cannot deadlock the interpreter's import machinery — they
        are the sanctioned way to break a cycle, and excluding them here
        is what makes that escape valve real. Returns each strongly
        connected component with more than one member (or a self-loop)
        as a sorted tuple of paths, in sorted order.
        """
        adjacency: dict[str, list[str]] = {module: [] for module in self.modules}
        for edge in self.edges:
            if not edge.deferred and edge.source != edge.target:
                adjacency.setdefault(edge.source, []).append(edge.target)
        components = _strongly_connected(self.modules, adjacency)
        return sorted(
            tuple(sorted(component))
            for component in components
            if len(component) > 1
        )


def _strongly_connected(
    nodes: Sequence[str], adjacency: dict[str, list[str]]
) -> list[list[str]]:
    """Tarjan's algorithm, iterative (sorted traversal: deterministic)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            children = sorted(adjacency.get(node, ()))
            advanced = False
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


class CallGraph:
    """The project's name-resolved intra-project call graph."""

    def __init__(
        self,
        functions: Sequence[FunctionNode],
        calls: Sequence[CallSite],
        externals: Sequence[ExternalCall],
    ) -> None:
        self.functions: dict[str, FunctionNode] = {
            node.node_id: node for node in sorted(functions)
        }
        self.calls: tuple[CallSite, ...] = tuple(sorted(calls))
        self.externals: tuple[ExternalCall, ...] = tuple(sorted(externals))
        calls_by_caller: dict[str, list[CallSite]] = {}
        for site in self.calls:
            calls_by_caller.setdefault(site.caller, []).append(site)
        self._calls_by_caller = {
            caller: tuple(found) for caller, found in calls_by_caller.items()
        }
        externals_by_caller: dict[str, list[ExternalCall]] = {}
        for external in self.externals:
            externals_by_caller.setdefault(external.caller, []).append(external)
        self._externals_by_caller = {
            caller: tuple(found) for caller, found in externals_by_caller.items()
        }

    def calls_of(self, node_id: str) -> tuple[CallSite, ...]:
        """Resolved project calls made by one function, sorted."""
        return self._calls_by_caller.get(node_id, ())

    def externals_of(self, node_id: str) -> tuple[ExternalCall, ...]:
        """Import-rooted external calls made by one function, sorted."""
        return self._externals_by_caller.get(node_id, ())


@dataclass(frozen=True)
class ProjectGraphs:
    """Everything :func:`build_graphs` derives from one source set."""

    modules: ModuleGraph
    calls: CallGraph


class _ClassInfo:
    """Method table + base names of one class, for ``self.x()`` lookup."""

    __slots__ = ("methods", "bases")

    def __init__(self) -> None:
        self.methods: dict[str, str] = {}  # method name -> node id
        self.bases: list[str] = []  # dotted base names (import-resolved)


class _FileFacts:
    """Everything one parsed file contributes to the graphs."""

    __slots__ = ("relpath", "imports", "tree", "classes", "functions", "import_table")

    def __init__(self, relpath: str, tree: ast.Module, import_table: dict[str, str]) -> None:
        self.relpath = relpath
        self.tree = tree
        self.import_table = import_table
        #: (dotted target, line, deferred, module_form)
        self.imports: list[tuple[str, int, bool, bool]] = []
        self.classes: dict[str, _ClassInfo] = {}
        self.functions: dict[str, FunctionNode] = {}  # qualname -> node


def _import_targets(
    node: ast.Import | ast.ImportFrom, package: str
) -> list[tuple[str, bool]]:
    """Dotted names an import statement might bind, as (dotted,
    module_form) pairs. A module-form target (``import a.b``, the base
    of a ``from a.b import x``) must match a project file exactly; a
    symbol-form target (``a.b.x``) may resolve one symbol deep — the
    distinction keeps ``from repro.utils import x`` from fabricating an
    edge to the package root when ``utils`` has no ``__init__``."""
    targets: list[tuple[str, bool]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            targets.append((alias.name, True))
        return targets
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        keep = len(parts) - node.level + 1
        if keep < 1:
            return targets
        base = ".".join(parts[:keep])
        if node.module:
            base = f"{base}.{node.module}"
    if not base:
        return targets
    for alias in node.names:
        targets.append((f"{base}.{alias.name}", False))
    targets.append((base, True))
    return targets


def _parse_files(sources: Sequence[SourceFile]) -> list[_FileFacts]:
    """Parse every source into the per-file fact sheet (unparsable files
    are skipped: the engine rejects them before rules ever run, and the
    graph should not die on a corpus member the lint did not target)."""
    facts: list[_FileFacts] = []
    for source in sorted(sources, key=lambda item: item.relpath):
        try:
            tree = ast.parse(source.text, filename=source.relpath)
        except SyntaxError:
            continue
        import_table: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    import_table[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    import_table[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        facts.append(_FileFacts(source.relpath, tree, import_table))
    return facts


def _collect_imports(facts: _FileFacts) -> None:
    """Record (dotted, line, deferred) for every import statement."""
    dotted_self = module_name(facts.relpath)
    package = (
        dotted_self
        if facts.relpath.endswith("__init__.py")
        else dotted_self.rsplit(".", 1)[0]
    )

    def visit(node: ast.AST, deferred: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target, module_form in _import_targets(child, package):
                    facts.imports.append(
                        (target, child.lineno, deferred, module_form)
                    )
            # Function bodies run on call, and `if TYPE_CHECKING:` blocks
            # never run at all — neither executes at module load.
            child_deferred = deferred or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) or (isinstance(child, ast.If) and _is_type_checking(child.test))
            visit(child, child_deferred)

    visit(facts.tree, False)


def _is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` / ``typing.TYPE_CHECKING`` as an ``if`` test."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _collect_definitions(facts: _FileFacts) -> None:
    """Record module-level functions, classes, and their methods."""
    for node in facts.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions[node.name] = FunctionNode(
                f"{facts.relpath}:{node.name}",
                facts.relpath,
                node.name,
                node.lineno,
                isinstance(node, ast.AsyncFunctionDef),
            )
        elif isinstance(node, ast.ClassDef):
            info = _ClassInfo()
            for base in node.bases:
                dotted = _dotted_of(base, facts.import_table)
                if dotted is not None:
                    info.bases.append(dotted)
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{node.name}.{member.name}"
                    facts.functions[qualname] = FunctionNode(
                        f"{facts.relpath}:{qualname}",
                        facts.relpath,
                        qualname,
                        member.lineno,
                        isinstance(member, ast.AsyncFunctionDef),
                    )
                    info.methods[member.name] = f"{facts.relpath}:{qualname}"
            facts.classes[node.name] = info


def _dotted_of(node: ast.expr, import_table: dict[str, str]) -> str | None:
    """Dotted name of a name/attribute chain through the import table
    (the standalone twin of ``FileContext.resolve_call``)."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    parts[0] = import_table.get(parts[0], parts[0])
    return ".".join(parts)


def _root_name(node: ast.expr) -> str | None:
    """The leftmost ``Name`` of a call target, if any."""
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        current = current.value
    return current.id if isinstance(current, ast.Name) else None


class _Resolver:
    """Cross-file name resolution over the parsed fact sheets."""

    def __init__(self, facts: Sequence[_FileFacts]) -> None:
        self.by_path: dict[str, _FileFacts] = {f.relpath: f for f in facts}
        # Longest-prefix module lookup: dotted module name -> relpath.
        self.module_files: dict[str, str] = {}
        for sheet in facts:
            self.module_files[module_name(sheet.relpath)] = sheet.relpath
            if sheet.relpath.startswith("benchmarks/"):
                # Benchmark scripts import each other bare (`from _hw
                # import ...` with benchmarks/ on sys.path).
                stem = sheet.relpath[len("benchmarks/") : -3]
                self.module_files.setdefault(stem, sheet.relpath)
        # Unique-name fallback: terminal name -> node ids defining it.
        names: dict[str, list[str]] = {}
        for sheet in facts:
            for qualname, node in sheet.functions.items():
                names.setdefault(qualname.rsplit(".", 1)[-1], []).append(node.node_id)
        self.by_terminal = {name: sorted(ids) for name, ids in names.items()}

    def module_of(self, dotted: str) -> tuple[str, list[str]] | None:
        """Split a dotted name into (file, symbol-path remainder) by the
        longest module prefix that names a project file."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            relpath = self.module_files.get(prefix)
            if relpath is not None:
                return relpath, parts[cut:]
        return None

    def resolve_symbol(
        self, relpath: str, symbol_path: list[str], depth: int = _RESOLVE_DEPTH
    ) -> str | None:
        """A symbol path inside one file to a function node id (chasing
        ``__init__`` re-exports and class constructors)."""
        if depth <= 0 or not symbol_path:
            return None
        sheet = self.by_path.get(relpath)
        if sheet is None:
            return None
        head = symbol_path[0]
        if len(symbol_path) == 1:
            node = sheet.functions.get(head)
            if node is not None:
                return node.node_id
            info = sheet.classes.get(head)
            if info is not None:  # instantiation runs the constructor
                return info.methods.get("__init__")
        elif len(symbol_path) == 2:
            node = sheet.functions.get(f"{head}.{symbol_path[1]}")
            if node is not None:
                return node.node_id
            info = sheet.classes.get(head)
            if info is not None:
                return self.method_on(sheet, head, symbol_path[1], depth - 1)
        # Re-export: `from repro.serving import DetectionService` binds
        # the symbol on the package __init__; chase its import table.
        re_export = sheet.import_table.get(head)
        if re_export is not None:
            located = self.module_of(".".join([re_export, *symbol_path[1:]]))
            if located is not None and located[0] != relpath:
                target, remainder = located
                if remainder:
                    return self.resolve_symbol(target, remainder, depth - 1)
        return None

    def method_on(
        self, sheet: _FileFacts, class_name: str, method: str, depth: int = _RESOLVE_DEPTH
    ) -> str | None:
        """Look a method up on a class, walking project-resolvable bases."""
        if depth <= 0:
            return None
        info = sheet.classes.get(class_name)
        if info is None:
            return None
        found = info.methods.get(method)
        if found is not None:
            return found
        for base in info.bases:
            if "." not in base:  # base defined in the same file
                resolved = self.method_on(sheet, base, method, depth - 1)
                if resolved is not None:
                    return resolved
                continue
            located = self.module_of(base)
            if located is None:
                continue
            base_path, remainder = located
            base_sheet = self.by_path.get(base_path)
            if base_sheet is None or len(remainder) != 1:
                continue
            resolved = self.method_on(base_sheet, remainder[0], method, depth - 1)
            if resolved is not None:
                return resolved
        return None


def _collect_calls(
    facts: _FileFacts, resolver: _Resolver
) -> tuple[list[CallSite], list[ExternalCall]]:
    """Resolve every call expression inside each function of one file."""
    calls: list[CallSite] = []
    externals: list[ExternalCall] = []

    def resolve(call: ast.Call, owner: str, class_name: str | None) -> None:
        func = call.func
        dotted = _dotted_of(func, facts.import_table)
        if dotted is None:
            return
        parts = dotted.split(".")
        # self.method() / cls.method(): the enclosing class's namespace.
        if parts[0] in ("self", "cls") and class_name is not None:
            if len(parts) == 2:
                callee = resolver.method_on(facts, class_name, parts[1])
                if callee is not None:
                    calls.append(CallSite(owner, callee, call.lineno))
            return
        root = _root_name(func)
        if root is None:
            return
        if root in facts.import_table or (
            len(parts) == 1 and parts[0] in facts.functions
        ):
            local = facts.functions.get(dotted) if len(parts) == 1 else None
            if local is not None:
                calls.append(CallSite(owner, local.node_id, call.lineno))
                return
            located = resolver.module_of(dotted)
            if located is not None:
                relpath, remainder = located
                callee = resolver.resolve_symbol(relpath, remainder)
                if callee is not None:
                    calls.append(CallSite(owner, callee, call.lineno))
                    return
                if not remainder:
                    return  # a module object called? nothing to record
            if root in facts.import_table:
                externals.append(ExternalCall(owner, dotted, call.lineno))
            return
        if len(parts) == 1:
            if parts[0] in facts.classes:
                callee = facts.classes[parts[0]].methods.get("__init__")
                if callee is not None:
                    calls.append(CallSite(owner, callee, call.lineno))
            elif parts[0] in _BUILTIN_EXTERNALS:
                externals.append(ExternalCall(owner, parts[0], call.lineno))
            return
        # ClassName.method() on a same-file class.
        if parts[0] in facts.classes and len(parts) == 2:
            callee = resolver.method_on(facts, parts[0], parts[1])
            if callee is not None:
                calls.append(CallSite(owner, callee, call.lineno))
            return
        # Unique-name fallback for attribute calls with project-style
        # (underscored) names: `service.hot_keys()` links when the
        # project defines exactly one `hot_keys`.
        terminal = parts[-1]
        if "_" in terminal.strip("_"):
            candidates = resolver.by_terminal.get(terminal, [])
            if len(candidates) == 1:
                calls.append(CallSite(owner, candidates[0], call.lineno))

    def walk_function(
        body: ast.FunctionDef | ast.AsyncFunctionDef, owner: str, class_name: str | None
    ) -> None:
        # Nested defs/lambdas are attributed to the enclosing function:
        # a closure's blocking call still runs on the caller's stack.
        for node in ast.walk(body):
            if isinstance(node, ast.Call):
                resolve(node, owner, class_name)

    for node in facts.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walk_function(node, f"{facts.relpath}:{node.name}", None)
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk_function(
                        member, f"{facts.relpath}:{node.name}.{member.name}", node.name
                    )
    return calls, externals


def build_graphs(sources: Sequence[SourceFile]) -> ProjectGraphs:
    """Build (or fetch from the per-run cache) both project graphs.

    The cache key is the sorted tuple of (path, content-hash) pairs, so
    any edit to any file rebuilds, while repeated runs over identical
    sources — every project rule in one lint — reuse one construction.
    Input order never matters: files are processed in sorted path order
    regardless of discovery order.
    """
    key = tuple(
        sorted(
            (source.relpath, hashlib.sha256(source.text.encode("utf-8")).hexdigest())
            for source in sources
        )
    )
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
        return cached

    facts = _parse_files(sources)
    for sheet in facts:
        _collect_imports(sheet)
        _collect_definitions(sheet)
    resolver = _Resolver(facts)

    edges: list[ImportEdge] = []
    for sheet in facts:
        seen: set[tuple[str, int, bool]] = set()
        for dotted, line, deferred, module_form in sheet.imports:
            located = resolver.module_of(dotted)
            if located is None:
                continue
            target, remainder = located
            if remainder and (module_form or len(remainder) > 1):
                continue  # prefix match too shallow to be this import
            if target == sheet.relpath:
                continue
            marker = (target, line, deferred)
            if marker in seen:
                continue
            seen.add(marker)
            edges.append(ImportEdge(sheet.relpath, target, line, deferred))

    functions: list[FunctionNode] = []
    calls: list[CallSite] = []
    externals: list[ExternalCall] = []
    for sheet in facts:
        functions.extend(sheet.functions.values())
        file_calls, file_externals = _collect_calls(sheet, resolver)
        calls.extend(file_calls)
        externals.extend(file_externals)

    graphs = ProjectGraphs(
        modules=ModuleGraph([sheet.relpath for sheet in facts], edges),
        calls=CallGraph(functions, calls, externals),
    )
    _CACHE[key] = graphs
    while len(_CACHE) > _CACHE_CAPACITY:
        _CACHE.popitem(last=False)
    return graphs


def iter_async_roots(
    graphs: ProjectGraphs, prefix: str = "serving/"
) -> Iterator[FunctionNode]:
    """The ``async def`` nodes under ``prefix``, sorted — REP008's roots."""
    for node_id in sorted(graphs.calls.functions):
        node = graphs.calls.functions[node_id]
        if node.is_async and node.path.startswith(prefix):
            yield node

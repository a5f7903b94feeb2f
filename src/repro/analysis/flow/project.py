"""Whole-program symbol index and lightweight type inference.

The flow engine needs to answer two questions the per-module framework
cannot: *which function does this call land in?* and *what class is
this expression an instance of?*  Both are answered here from purely
static evidence, cheapest first:

* parameter and return **annotations** (``region: RomulusRegion``,
  ``-> "Transaction"`` — string annotations included);
* **constructor assignments** (``self.engine = EncryptionEngine(...)``,
  ``x = FlightRing(cap)``, module-level ``POOL = WorkerPool()``);
* **import aliases** resolved through
  :attr:`~repro.analysis.lint.framework.ModuleSource.import_aliases`.

Anything the evidence does not pin down stays ``None`` — the analyses
degrade to name-based fallbacks rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.lint.framework import ModuleSource

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method definition (nested defs included)."""

    qualname: str
    module: str
    name: str
    node: FuncNode
    src: ModuleSource
    owner: Optional["ClassInfo"] = None
    parent: Optional["FunctionInfo"] = None

    @property
    def params(self) -> List[str]:
        """Positional parameter names in declaration order (incl. self)."""
        args = self.node.args
        return [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]

    @property
    def is_method(self) -> bool:
        return self.owner is not None and self.parent is None

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


@dataclass
class ClassInfo:
    """One class definition plus derived attribute knowledge."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    src: ModuleSource
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qualname, from constructor assignments
    #: and annotated-parameter aliasing in any method.
    attr_types: Dict[str, str] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.qualname})"


class Project:
    """Parsed view of every module handed to the flow engine."""

    def __init__(self, sources: Sequence[ModuleSource]) -> None:
        self.sources: List[ModuleSource] = list(sources)
        self.modules: Dict[str, ModuleSource] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: (module, attr) -> class qualname for module-level instances.
        self.module_attr_types: Dict[Tuple[str, str], str] = {}
        self._env_cache: Dict[str, Dict[str, str]] = {}
        self._env_in_progress: Set[str] = set()
        for src in self.sources:
            # Last writer wins on duplicate module names (fixtures may
            # shadow; real packages never collide).
            self.modules[src.module] = src
        for src in self.sources:
            self._index_module(src)
        for src in self.sources:
            self._index_module_attrs(src)
        for cls in self.classes.values():
            self._derive_attr_types(cls)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, paths: Sequence[Path]) -> "Project":
        """Parse every ``.py`` file under ``paths`` into one project."""
        from repro.analysis.lint.runner import discover_files

        sources: List[ModuleSource] = []
        for path in discover_files(paths):
            try:
                sources.append(ModuleSource.load(path))
            except SyntaxError:
                continue  # unparseable files are reported by other tools
        return cls(sources)

    def _index_module(self, src: ModuleSource) -> None:
        for stmt in src.tree.body if isinstance(src.tree, ast.Module) else []:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(src, stmt, prefix=src.module)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(src, stmt)

    def _index_class(self, src: ModuleSource, node: ast.ClassDef) -> None:
        qualname = f"{src.module}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            name=node.name,
            module=src.module,
            node=node,
            src=src,
            base_names=[b for b in map(src.dotted, node.bases) if b],
        )
        self.classes[qualname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._index_function(src, stmt, prefix=qualname, owner=info)
                info.methods[stmt.name] = fn
                self.methods_by_name.setdefault(stmt.name, []).append(fn)

    def _index_function(
        self,
        src: ModuleSource,
        node: FuncNode,
        prefix: str,
        owner: Optional[ClassInfo] = None,
        parent: Optional[FunctionInfo] = None,
    ) -> FunctionInfo:
        qualname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=src.module,
            name=node.name,
            node=node,
            src=src,
            owner=owner,
            parent=parent,
        )
        self.functions[qualname] = info
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Direct children only: deeper nesting recurses.
                if self._enclosing_def(node, stmt) is node:
                    self._index_function(
                        src, stmt, prefix=qualname, owner=owner, parent=info
                    )
        return info

    @staticmethod
    def _enclosing_def(root: FuncNode, target: ast.AST) -> Optional[ast.AST]:
        """Innermost function def under ``root`` containing ``target``."""
        best: Optional[ast.AST] = None

        def visit(node: ast.AST, current: ast.AST) -> None:
            nonlocal best
            for child in ast.iter_child_nodes(node):
                if child is target:
                    best = current
                    return
                nxt = (
                    child
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else current
                )
                visit(child, nxt)

        visit(root, root)
        return best

    def _index_module_attrs(self, src: ModuleSource) -> None:
        body = src.tree.body if isinstance(src.tree, ast.Module) else []
        for stmt in body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            cls = self._class_of_constructor(src, stmt.value)
            if cls is None:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.module_attr_types[(src.module, target.id)] = (
                        cls.qualname
                    )

    def _derive_attr_types(self, cls: ClassInfo) -> None:
        """``self.x = ...`` assignments in any method pin attr types."""
        for method in cls.methods.values():
            env = {
                a.arg: t
                for a, t in self._annotated_params(method)
                if t is not None
            }
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    value = node.value
                    if isinstance(value, ast.Call):
                        ctor = self._class_of_constructor(cls.src, value)
                        if ctor is not None:
                            cls.attr_types.setdefault(attr, ctor.qualname)
                    elif isinstance(value, ast.Name) and value.id in env:
                        cls.attr_types.setdefault(attr, env[value.id])

    # ------------------------------------------------------------------
    # Name and type resolution
    # ------------------------------------------------------------------
    def resolve_class(
        self, name: str, src: ModuleSource
    ) -> Optional[ClassInfo]:
        """Resolve a (possibly dotted) class name seen in ``src``."""
        if not name:
            return None
        same_module = self.classes.get(f"{src.module}.{name}")
        if same_module is not None:
            return same_module
        if name in self.classes:
            return self.classes[name]
        head, _, rest = name.partition(".")
        origin = src.import_aliases.get(head)
        if origin is not None:
            dotted = f"{origin}.{rest}" if rest else origin
            if dotted in self.classes:
                return self.classes[dotted]
        # Unique bare-name fallback (annotations of re-exported classes).
        if "." not in name:
            hits = [c for c in self.classes.values() if c.name == name]
            if len(hits) == 1:
                return hits[0]
        return None

    def _class_of_constructor(
        self, src: ModuleSource, call: ast.Call
    ) -> Optional[ClassInfo]:
        dotted = src.dotted(call.func)
        if dotted is None:
            return None
        return self.resolve_class(dotted, src)

    def _annotation_name(
        self, src: ModuleSource, ann: Optional[ast.expr]
    ) -> Optional[str]:
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return ann.value.strip("'\" ")
        if isinstance(ann, (ast.Name, ast.Attribute)):
            return src.dotted(ann)
        if isinstance(ann, ast.Subscript):
            # Optional[X] — the analyses treat "maybe X" as "X".
            base = src.dotted(ann.value)
            if base in {"typing.Optional", "Optional"}:
                return self._annotation_name(src, ann.slice)
        return None

    def _annotated_params(
        self, fn: FunctionInfo
    ) -> Iterator[Tuple[ast.arg, Optional[str]]]:
        for arg in list(fn.node.args.posonlyargs) + list(fn.node.args.args):
            name = self._annotation_name(fn.src, arg.annotation)
            cls = self.resolve_class(name, fn.src) if name else None
            yield arg, cls.qualname if cls else None

    def return_type(self, fn: FunctionInfo) -> Optional[str]:
        """Class qualname of ``fn``'s annotated return type, if any."""
        name = self._annotation_name(fn.src, fn.node.returns)
        cls = self.resolve_class(name, fn.src) if name else None
        return cls.qualname if cls else None

    # ------------------------------------------------------------------
    # Per-function type environments
    # ------------------------------------------------------------------
    def local_env(self, fn: FunctionInfo) -> Dict[str, str]:
        """Name -> class qualname for ``fn``'s locals.

        Covers ``self``, annotated parameters, constructor assignments,
        results of calls with resolvable return annotations, and
        ``with ... as x`` bindings.  Nested defs inherit the enclosing
        function's environment (closures).
        """
        cached = self._env_cache.get(fn.qualname)
        if cached is not None:
            return cached
        if fn.qualname in self._env_in_progress:
            return {}
        self._env_in_progress.add(fn.qualname)
        try:
            env: Dict[str, str] = {}
            if fn.parent is not None:
                env.update(self.local_env(fn.parent))
            if fn.owner is not None and fn.params and fn.parent is None:
                env[fn.params[0]] = fn.owner.qualname
            for arg, typ in self._annotated_params(fn):
                if typ is not None:
                    env[arg.arg] = typ
            changed = True
            sweeps = 0
            while changed and sweeps < 3:
                changed = False
                sweeps += 1
                for node in ast.walk(fn.node):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    elif isinstance(node, ast.withitem):
                        target, value = node.optional_vars, node.context_expr
                    if not isinstance(target, ast.Name) or value is None:
                        continue
                    typ2 = self.infer_type(value, fn, env)
                    if typ2 is not None and env.get(target.id) != typ2:
                        env[target.id] = typ2
                        changed = True
            self._env_cache[fn.qualname] = env
            return env
        finally:
            self._env_in_progress.discard(fn.qualname)

    def infer_type(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        env: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Class qualname of ``expr``'s value, when statically evident."""
        if env is None:
            env = self.local_env(fn)
        if isinstance(expr, ast.Name):
            local = env.get(expr.id)
            if local is not None:
                return local
            return self.module_attr_types.get((fn.module, expr.id))
        if isinstance(expr, ast.Attribute):
            base = self.infer_type(expr.value, fn, env)
            if base is not None:
                cls = self.classes.get(base)
                if cls is not None:
                    hit = self._attr_type_with_bases(cls, expr.attr)
                    if hit is not None:
                        return hit
            dotted = fn.src.dotted(expr)
            if dotted is not None:
                if dotted in self.classes:
                    return dotted
                head, _, attr = dotted.rpartition(".")
                hit2 = self.module_attr_types.get((head, attr))
                if hit2 is not None:
                    return hit2
            return None
        if isinstance(expr, ast.Call):
            ctor = self._class_of_constructor(fn.src, expr)
            if ctor is not None:
                return ctor.qualname
            for callee in self.resolve_callees(fn, expr, env):
                ret = self.return_type(callee)
                if ret is not None:
                    return ret
            return None
        return None

    def _attr_type_with_bases(
        self, cls: ClassInfo, attr: str
    ) -> Optional[str]:
        for klass in self._mro(cls):
            hit = klass.attr_types.get(attr)
            if hit is not None:
                return hit
        return None

    def _mro(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            yield current
            for base in current.base_names:
                resolved = self.resolve_class(base, current.src)
                if resolved is not None:
                    stack.append(resolved)

    def lookup_method(
        self, cls: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        for klass in self._mro(cls):
            hit = klass.methods.get(name)
            if hit is not None:
                return hit
        return None

    # ------------------------------------------------------------------
    # Callable resolution
    # ------------------------------------------------------------------
    #: More same-named methods than this and the name tells us nothing.
    METHOD_FALLBACK_CAP = 3

    def resolve_callees(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: Optional[Dict[str, str]] = None,
    ) -> List[FunctionInfo]:
        """Project functions a call may land in (empty = external)."""
        func = call.func
        if env is None:
            env = self.local_env(fn)
        if isinstance(func, ast.Name):
            nested = self._lookup_nested(fn, func.id)
            if nested is not None:
                return [nested]
            module_fn = self.functions.get(f"{fn.module}.{func.id}")
            if module_fn is not None and module_fn.owner is None:
                return [module_fn]
            origin = fn.src.import_aliases.get(func.id)
            if origin is not None and origin in self.functions:
                return [self.functions[origin]]
            return []
        if isinstance(func, ast.Attribute):
            receiver = self.infer_type(func.value, fn, env)
            if receiver is not None:
                cls = self.classes.get(receiver)
                if cls is not None:
                    method = self.lookup_method(cls, func.attr)
                    return [method] if method is not None else []
            dotted = fn.src.dotted(func)
            if dotted is not None and dotted in self.functions:
                return [self.functions[dotted]]
            # Method-name fallback: only when the name is distinctive
            # enough to be meaningful project-wide.
            candidates = self.methods_by_name.get(func.attr, [])
            if 0 < len(candidates) <= self.METHOD_FALLBACK_CAP:
                return list(candidates)
            return []
        return []

    def _lookup_nested(
        self, fn: FunctionInfo, name: str
    ) -> Optional[FunctionInfo]:
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            hit = self.functions.get(f"{scope.qualname}.{name}")
            if hit is not None:
                return hit
            scope = scope.parent
        return None


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.field`` (or ``cls.field``) -> ``field``; else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None

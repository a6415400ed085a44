"""Parsed files and the project model every rule runs over.

A :class:`FileContext` is one parsed file with everything intrinsic to it:
its dotted module name, the import-alias map, module-level string
constants, and an index of its functions.  The :class:`ProjectModel`
cross-references all of them, answering what no single file can: *what
string does this name ultimately denote, possibly through a constant
imported from another module?*

Module naming is *structural*: a file's dotted name is derived by walking
up through ``__init__.py``-bearing directories, so fixture mini-packages
resolve exactly like the installed ``repro`` package does and the name
never depends on what the checkout directory happens to be called.

Determinism: ``modules`` is built in sorted-path order and
:meth:`ProjectModel.sorted_modules` iterates sorted keys, upholding the
byte-identical-output contract of the engine.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .astutil import ImportMap, dotted_name
from .findings import Finding
from .suppress import Suppressions, parse_suppressions

__all__ = [
    "model_module_name",
    "FileContext",
    "ProjectModel",
    "parse_file",
    "own_nodes",
]


def model_module_name(path: Path) -> str:
    """Structural dotted name of *path*: walk up while ``__init__.py``
    marks a package.  ``src/repro/net/tcp.py`` -> ``repro.net.tcp`` (the
    ``src`` directory has no ``__init__.py``); a standalone file maps to
    its stem."""
    path = path.resolve()
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    return ".".join(parts) if parts else path.stem


@dataclass
class FileContext:
    """Everything a rule may need about one parsed file."""

    path: Path
    display_path: str
    module: str  #: structural dotted name (see :func:`model_module_name`)
    source: str
    tree: ast.Module
    suppressions: Suppressions
    imports: ImportMap
    #: module-level NAME = "string" constants.
    constants: Dict[str, str]
    #: qualname -> def node of every function, method, and nested function.
    functions: Dict[str, ast.AST]
    #: True for reference-corpus files (tests etc.): their message sends
    #: count as producers, but rules never report findings in them.
    reference: bool = False
    _parents: Optional[Dict[int, ast.AST]] = field(default=None, repr=False)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of *node* (``None`` for the module)."""
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[id(child)] = outer
            self._parents = parents
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents of *node*, innermost first, up to the module."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)


def _display_path(path: Path) -> str:
    """Path as reported: relative to cwd when possible, else absolute."""
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def parse_file(
    path: Path, reference: bool = False
) -> Tuple[Optional[FileContext], List[Finding]]:
    """Parse *path* into a context; a syntax error becomes a finding."""
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {display}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, [
            Finding(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                rule="syntax-error",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    module = model_module_name(path)
    package = module if path.stem == "__init__" else module.rpartition(".")[0]
    ctx = FileContext(
        path=path,
        display_path=display,
        module=module,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
        imports=ImportMap(tree, package=package),
        constants=_string_constants(tree),
        functions=_function_index(tree),
        reference=reference,
    )
    return ctx, []


def _string_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "string"`` bindings."""
    constants: Dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            for target in targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = value.value
    return constants


def _function_index(tree: ast.Module) -> Dict[str, ast.AST]:
    """Every function, method, and nested function under its qualname."""
    index: Dict[str, ast.AST] = {}

    def visit(body: List[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index[f"{prefix}{stmt.name}"] = stmt
            elif not isinstance(stmt, ast.ClassDef):
                continue
            visit(stmt.body, f"{prefix}{stmt.name}.")

    visit(tree.body, "")
    return index


def own_nodes(func: ast.AST) -> List[ast.AST]:
    """*func*'s body without nested function/class bodies (those are
    indexed on their own), in source order."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(reversed(func.body))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue  # separate scope
        stack.extend(reversed(list(ast.iter_child_nodes(node))))
    return out


class ProjectModel:
    """The cross-referenced whole-program view (see module docstring).

    *files* are the parsed target files, in the order the engine
    discovered them, plus any reference-corpus files
    (tests/benchmarks/examples, ``reference=True``: their message sends
    count, but no finding is ever attributed to them).
    """

    def __init__(self, files: Sequence[FileContext]) -> None:
        #: the files findings may be reported in.
        self.targets: List[FileContext] = [
            ctx for ctx in files if not ctx.reference
        ]
        #: dotted name -> file, references included; the first file in
        #: sorted-path order wins a name (duplicates are degenerate).
        self.modules: Dict[str, FileContext] = {}
        for ctx in sorted(files, key=lambda c: str(c.path.resolve())):
            self.modules.setdefault(ctx.module, ctx)

    def sorted_modules(self) -> List[FileContext]:
        """Every module, in sorted-name order (deterministic iteration)."""
        return [self.modules[name] for name in sorted(self.modules)]

    # ----------------------------------------------------------- resolution
    def split_module(self, dotted: str) -> Tuple[str, str]:
        """Split *dotted* at the longest known module prefix.

        ``repro.sim.world.World`` -> ("repro.sim.world", "World");
        a path naming no known module -> ("", dotted).
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, ".".join(parts[cut:])
        return "", dotted

    def resolve_string(self, ctx: FileContext, node: ast.AST) -> Optional[str]:
        """The string value *node* statically denotes in *ctx*, or ``None``.

        Handles string literals, module-level constants, and constants
        imported from other modules in the model (``from .kinds import
        ACK``).
        """
        if isinstance(node, ast.Constant):
            return node.value if isinstance(node.value, str) else None
        dotted = dotted_name(node)
        if dotted is None:
            return None
        return self._lookup_constant(ctx, dotted, depth=0)

    def _lookup_constant(
        self, ctx: FileContext, dotted: str, depth: int
    ) -> Optional[str]:
        if depth > 8:  # defensive: alias cycles
            return None
        if "." not in dotted and dotted in ctx.constants:
            return ctx.constants[dotted]
        resolved = ctx.imports.resolve(dotted)
        if resolved == dotted and "." not in dotted:
            return None
        mod, rest = self.split_module(resolved)
        if not mod or not rest or "." in rest:
            return None
        target = self.modules[mod]
        if rest in target.constants:
            return target.constants[rest]
        if target is not ctx:
            return self._lookup_constant(target, rest, depth + 1)
        return None

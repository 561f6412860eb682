"""Every module, definition and package re-export under ``src/repro`` has
a caller outside the tests.

Modules: starting from the program's entry points (``repro``,
``repro.__main__``, ``repro.cli``), follow every import statement,
including the ones inside function bodies through which the scheme
registry and the CLI load their simulators lazily. Importing ``a.b.c``
also runs ``a`` and ``a.b``. A module nothing reaches is code only tests
and examples can run. This scan sees imports, not calls, and cannot see
imports built from strings at run time; the package has none.

Names: every ``def`` and ``class`` at module or class level, and every
module-level constant, must be named somewhere outside its own lines in
``src/``, ``examples/``, ``benchmarks/``, ``perfbench/`` (their
``tests`` folders excepted), the inline Python of the CI workflow or
README.md's python blocks. A use is a name, an attribute, an import
alias, a keyword or an identifier inside a string literal that is not a
docstring (perfbench's tracer names its targets in strings). The scan
matches names, not bindings: a definition that shares its name with a
used one passes, so it finds less than it could, never a false caller.

Re-exports: a name a package ``__init__.py`` imports only to list it in
``__all__`` must be imported through that package outside the tests
(``from repro.pkg import name``, ``repro.pkg.name``, or a call naming
``"repro.pkg", "name"`` as perfbench's tracer does). Inside an
``__init__.py``, the re-export itself and ``__all__`` are no use of the
name.
"""

import ast
import importlib.util
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROOTS = ("repro", "repro.__main__", "repro.cli")
#: the folders whose Python may call into ``src/repro``
CALLER_DIRS = ("src", "examples", "benchmarks", "perfbench")

_AWAITING = ("reached only from tests and examples until campaign outcome "
             "labels propagate undetected strikes through it (ROADMAP.md, "
             "\"Outcome labels that hold up\")")

#: what both guards accept with no caller outside the tests, and why; a
#: module entry exempts the module and everything defined in it
ALLOWLIST = {
    "repro.faults.sdc": _AWAITING,
    "repro.faults.avf": _AWAITING,
    "repro.isa.encoding": _AWAITING + "; a struck l1i_data word will be "
                          "re-decoded through it",
    "repro.checkpoint.snapshot._SnapshotPickler.persistent_id":
        "pickle.Pickler calls it by name for every object it writes",
    "repro.checkpoint.snapshot._SnapshotUnpickler.persistent_load":
        "pickle.Unpickler calls it by name for every persistent id it reads",
}

_IDENT = re.compile(r"[A-Za-z_]\w*")


def _modules(src):
    mods = {}
    for path in (src / "repro").rglob("*.py"):
        parts = list(path.relative_to(src).with_suffix("").parts)
        is_pkg = parts[-1] == "__init__"
        if is_pkg:
            parts.pop()
        mods[".".join(parts)] = (path, is_pkg)
    return mods


#: the modules the reachability guard exempts
AWAITING_CALLER = set(ALLOWLIST) & set(_modules(ROOT / "src"))


def _resolve(node, name, is_pkg):
    """The absolute module an ``ImportFrom`` names, or None."""
    if node.level and not name:
        return None
    package = name if is_pkg else name.rpartition(".")[0]
    return importlib.util.resolve_name(
        "." * node.level + (node.module or ""), package)


def _imports(name, path, is_pkg, mods):
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = _resolve(node, name, is_pkg)
            found.add(target)
            # ``from pkg import sub`` imports the submodule ``pkg.sub``
            found.update(f"{target}.{alias.name}" for alias in node.names)
    return {m for m in found if m in mods}


def test_every_module_is_reachable_from_an_entry_point():
    mods = _modules(ROOT / "src")
    reached = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        parent = name.rpartition(".")[0]
        if parent:
            todo.append(parent)
        todo.extend(_imports(name, *mods[name], mods))
    stale = AWAITING_CALLER & reached
    assert not stale, f"now reached, drop from ALLOWLIST: {stale}"
    orphans = set(mods) - reached - AWAITING_CALLER
    assert not orphans, sorted(orphans)


# -- the name scan ----------------------------------------------------------

class _Source:
    """One parsed piece of caller Python: a file, or a snippet of one."""

    def __init__(self, path, tree, module="", is_pkg=False):
        self.path, self.tree = path, tree
        self.module, self.is_pkg = module, is_pkg


def _snippets(path, text, pattern):
    for match in re.finditer(pattern, text, re.S):
        code = textwrap.dedent(match.group(1).replace("\\\n", ""))
        try:
            yield _Source(path, ast.parse(code))
        except SyntaxError:
            # a README fragment that is not a whole program still names
            # what it uses
            yield _Source(path, ast.Constant(code))


def _sources(root):
    """Every piece of Python outside the tests that may call into
    ``src/repro``."""
    src = root / "src"
    modules = {path: (name, is_pkg)
               for name, (path, is_pkg) in _modules(src).items()}
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            name, is_pkg = modules.get(path, ("", False))
            yield _Source(path, ast.parse(path.read_text(), str(path)),
                          name, is_pkg)
    ci = root / ".github" / "workflows" / "ci.yml"
    if ci.exists():
        text = ci.read_text()
        yield from _snippets(ci, text, r"<<'EOF'\n(.*?)\n\s*EOF\n")
        yield from _snippets(ci, text, r"python -c \\?\s*\"(.*?)\"")
    readme = root / "README.md"
    if readme.exists():
        yield from _snippets(readme, readme.read_text(),
                             r"```python\n(.*?)```")


def _docstrings(tree):
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                found.add(first.value)
    return found


def _reexports(tree):
    """{name: import line} of each name this package ``__init__`` imports
    only to list in ``__all__``, and the ``__all__`` statement."""
    listed, all_node, imported = set(), None, {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            all_node = node
            listed = {elt.value for elt in node.value.elts}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name] = alias
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ({name: imported[name] for name in listed
             if name in imported and name not in used}, all_node)


def _uses(source):
    """(identifier, line) of every use of a name in ``source``."""
    skip = set()
    if source.is_pkg:
        aliases, all_node = _reexports(source.tree)
        skip = set(aliases.values()) | {all_node}
    docs = _docstrings(source.tree)
    stack = [source.tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            yield node.id, line
        elif isinstance(node, ast.Attribute):
            yield node.attr, line
        elif isinstance(node, ast.alias):
            for name in node.name.split(".") + [node.asname or ""]:
                yield name, line
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, line
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in docs):
            for name in _IDENT.findall(node.value):
                yield name, line


def _dotted(node, aliases):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _through_packages(source):
    """Every (module, name) pair ``source`` reaches as ``module.name``."""
    aliases, found = {}, set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ImportFrom):
            base = _resolve(node, source.module, source.is_pkg)
            for alias in node.names:
                found.add((base, alias.name))
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.Call):
            # ``t(layer, "repro.workloads", "load_workload")``
            args = [a.value if isinstance(a, ast.Constant) else None
                    for a in node.args]
            found.update(zip(args, args[1:]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(tuple(node.value.rpartition(".")[::2]))
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Attribute):
            found.add((_dotted(node.value, aliases), node.attr))
    return found


def _definitions(tree):
    """(qualified name, name, node) of every def and class at module or
    class level, and of every module-level constant; dunders excluded."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield prefix + node.name, node.name, node
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")
            elif not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield name.id, name.id, node
    for qualname, name, node in walk(tree.body, ""):
        if not (name.startswith("__") and name.endswith("__")):
            yield qualname, name, node


def scan(root, exempt=()):
    """{qualified name: ``path:line name``} of every definition and
    re-export under ``root/src/repro`` with no caller outside the tests,
    except the names and modules in ``exempt``."""
    sources = list(_sources(root))
    uses, reached = {}, set()
    for source in sources:
        for name, line in _uses(source):
            uses.setdefault(name, []).append((source.path, line))
        reached |= _through_packages(source)
    found = {}
    for source in sources:
        if not source.module or source.module in exempt:
            continue
        rel = source.path.relative_to(root)
        for qualname, name, node in _definitions(source.tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(path != source.path or line not in own
                       for path, line in uses.get(name, ())):
                found[f"{source.module}.{qualname}"] = \
                    f"{rel}:{node.lineno} {qualname}"
        if source.is_pkg:
            for name, alias in _reexports(source.tree)[0].items():
                if (source.module, name) not in reached:
                    found[f"{source.module}.{name}"] = \
                        f"{rel}:{alias.lineno} {name} (re-export)"
    return {k: v for k, v in found.items() if k not in exempt}


def test_every_definition_and_reexport_has_a_caller():
    found = scan(ROOT, AWAITING_CALLER)
    unexplained = sorted(v for k, v in found.items() if k not in ALLOWLIST)
    assert not unexplained, "no caller outside the tests, delete:\n" + \
        "\n".join(unexplained)
    stale = set(ALLOWLIST) - AWAITING_CALLER - set(found)
    assert not stale, f"has a caller or is gone, drop from ALLOWLIST: {stale}"
    assert all(ALLOWLIST.values())


def _plant(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def test_scan_finds_planted_test_only_definition_and_reexport(tmp_path):
    _plant(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": """\
            from repro.pkg.mod import LIMIT, exported, used
            __all__ = ["LIMIT", "exported", "used"]
            """,
        "src/repro/pkg/mod.py": """\
            LIMIT = 3

            def used():
                return LIMIT

            def exported():
                return exported

            def only_tested():
                return 1
            """,
        "examples/demo.py": """\
            from repro.pkg import used
            from repro.pkg.mod import exported
            print(used(), exported())
            """,
        "tests/test_mod.py": """\
            from repro.pkg import LIMIT, exported
            from repro.pkg.mod import only_tested
            assert only_tested() == 1 and exported() and LIMIT
            """,
        "README.md": "```python\nimport repro.pkg\nrepro.pkg.LIMIT\n```\n",
    })
    assert scan(tmp_path) == {
        "repro.pkg.exported": "src/repro/pkg/__init__.py:1 exported "
                              "(re-export)",
        "repro.pkg.mod.only_tested": "src/repro/pkg/mod.py:9 only_tested",
    }
    assert scan(tmp_path, {"repro.pkg.mod", "repro.pkg.exported"}) == {}

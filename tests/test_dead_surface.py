"""Dead surface: nothing in ``src/`` that only a test reaches.

ROADMAP aim 2 asks for the same behaviour from the least code, and a
deletion only sticks if something notices when the code comes back.
``test_line_budget.py`` caps how much code each package has; this scan
checks that the code it has is reached.  Three rules, all by AST:

* **Defs.**  Every function, class and method under ``src/repro``
  (dunders excluded) is named — as a name, attribute, import or string
  — by ``src/repro``, ``benchmarks/`` or ``examples/``.  A def's own
  body does not count as a reference, nor do package ``__init__``
  re-exports and ``__all__`` lists: a name that only a re-export and a
  test mention is test-only surface.  Documenting a def does not keep
  it alive either: docs/api.md describes code that runs, it is not a
  caller.
* **Config fields.**  Every field of the dataclasses in
  ``config/system.py`` is read, as an attribute or a ``getattr`` string,
  somewhere in ``src/repro`` other than its own declaration.  A field
  nothing reads loads, validates and changes nothing.
* **CLI flags.**  Every ``add_argument`` destination in ``cli.py`` is
  read there.  A flag nothing reads parses and changes nothing.

One more rule keeps docs/api.md honest the other way round: every
backticked dotted ``repro.…`` path in it imports and resolves, so a
deletion that leaves its API entry behind fails here.

The scan is by bare name, so a name defined twice is alive if either
def is used, and a def whose name is also an attribute or a string key
elsewhere (``ipc``, ``"perf_error"``) looks alive whatever calls it;
methods that several classes share (``reset``, ``describe`` ...) need a
review by hand.  ``stats()`` leaves are out of scope: they are data,
and every stats digest depends on them.

``ALLOWLIST`` holds the defs that only a framework calls.  It may only
shrink, and an entry whose def is gone or used fails the test.
"""

import ast
import functools
import pathlib
import pkgutil
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLERS = (SRC, ROOT / "benchmarks", ROOT / "examples")
API_DOC = ROOT / "docs" / "api.md"

MAX_ALLOWLIST = 0
ALLOWLIST = {}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


@functools.lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _sources():
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            yield path, _parse(path)


def _getattr_name(node):
    """The literal attribute name of ``getattr(x, "name"[, d])``."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def _reexports(path, tree):
    """Nodes of a package ``__init__`` that only re-export names."""
    if path.name != "__init__.py":
        return set()
    skipped = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            skipped.add(node)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            skipped.update(ast.walk(node))
    return skipped


def _references(path, tree):
    """Yield ``(name, line)`` for every name a module mentions."""
    skipped = _reexports(path, tree)
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _defs(tree, prefix=""):
    """Yield ``(qualname, name, first_line, last_line)`` for each def."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node.name, node.lineno, node.end_lineno
            yield from _defs(node, qualname + ".")
        else:
            yield from _defs(node, prefix)


@functools.lru_cache(maxsize=None)
def _scan():
    """Map ``file:qualname`` of every unreferenced def to its name."""
    refs = {}
    defs = []
    for path, tree in _sources():
        for name, line in _references(path, tree):
            refs.setdefault(name, []).append((path, line))
        if SRC in path.parents:
            for qualname, name, first, last in _defs(tree):
                if not _is_dunder(name):
                    defs.append((path, qualname, name, first, last))
    dead = {}
    for path, qualname, name, first, last in defs:
        if any(where != path or not first <= line <= last
               for where, line in refs.get(name, ())):
            continue
        dead["%s:%s" % (path.relative_to(SRC).as_posix(), qualname)] = name
    return dead


def test_every_def_in_src_is_reached_outside_the_tests():
    dead = set(_scan())
    unexpected = sorted(dead - set(ALLOWLIST))
    assert not unexpected, (
        "defs in src/repro that only tests (or nothing) name: %s. "
        "Delete them, or move test-only helpers to tests/"
        % ", ".join(unexpected))


def test_allowlist_only_shrinks():
    assert len(ALLOWLIST) <= MAX_ALLOWLIST
    stale = sorted(set(ALLOWLIST) - set(_scan()))
    assert not stale, (
        "allowlist entries whose def is gone or now reached: %s; "
        "remove them" % ", ".join(stale))


def test_every_api_doc_path_resolves():
    paths = sorted(set(re.findall(r"`(repro(?:\.\w+)+)",
                                  API_DOC.read_text())))
    assert len(paths) > 10, "the scan lost track of docs/api.md"
    broken = []
    for dotted in paths:
        try:
            pkgutil.resolve_name(dotted)
        except (ImportError, AttributeError) as exc:
            broken.append("%s (%s)" % (dotted, exc))
    assert not broken, (
        "docs/api.md names paths that do not import: %s. Fix the entry "
        "or delete it with the code" % "; ".join(broken))


def _config_fields():
    """Yield ``(class, field)`` for each dataclass field in system.py."""
    tree = _parse(SRC / "config" / "system.py")
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not any("dataclass" in ast.unparse(d)
                   for d in node.decorator_list):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                yield node.name, stmt.target.id


def _reads(roots):
    """Names read as an attribute or a ``getattr`` string under roots
    (directories or files)."""
    read = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            for node in ast.walk(_parse(path)):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    read.add(node.attr)
                name = _getattr_name(node)
                if name is not None:
                    read.add(name)
    return read


def test_every_config_field_is_read():
    read = _reads([SRC])
    unread = ["%s.%s" % pair for pair in _config_fields()
              if pair[1] not in read]
    assert not unread, (
        "config fields that nothing reads, so setting them changes "
        "nothing: %s. Honour them in the model or delete them"
        % ", ".join(unread))


def _flag_destinations():
    """The destination of every ``add_argument`` call in cli.py."""
    dests = set()
    for node in ast.walk(_parse(SRC / "cli.py")):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        dest = [k.value.value for k in node.keywords if k.arg == "dest"]
        options = [a.value for a in node.args]
        longs = [o for o in options if o.startswith("--")]
        dests.add(dest[0] if dest else
                  (longs or options)[0].lstrip("-").replace("-", "_"))
    return dests


#: Flags of ``repro run`` and ``repro verify`` that stay: a scan that
#: misses any of them has lost track of cli.py, and its empty unread
#: set proves nothing.
KNOWN_FLAGS = {"checkpoint_dir", "resume", "status_file", "inject_faults",
               "stats_out", "replay"}


def test_every_cli_flag_is_read():
    dests = _flag_destinations()
    missing = sorted(KNOWN_FLAGS - dests)
    assert not missing, (
        "the scan lost track of cli.py's flags: %s" % ", ".join(missing))
    read = _reads([SRC / "cli.py"])
    unread = sorted(dests - read)
    assert not unread, (
        "argparse destinations that nothing reads: %s"
        % ", ".join(unread))

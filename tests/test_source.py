"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cga"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(text):
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(text)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_finds_a_dead_name():
    text = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(text) == [(1, "path"), (2, "sys")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_parameters(text):
    """(line, function, parameter) for each parameter of a def or lambda that
    its body never reads.  ``self`` and ``cls`` are exempt, and so is a def
    whose body, its docstring aside, only raises (an abstract method)."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Lambda):
            name, body = "<lambda>", [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            if all(isinstance(stmt, ast.Raise) for stmt in body):
                continue
        else:
            continue
        read = set()
        for sub in (sub for stmt in body for sub in ast.walk(stmt)):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                read.add(sub.target.id)
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(arg for arg in (args.vararg, args.kwarg) if arg is not None)]
        found.extend((node.lineno, name, arg.arg) for arg in params
                     if arg.arg not in ("self", "cls", *read))
    return sorted(found)


def test_unread_parameters_finds_an_unread_parameter():
    text = ("def f(a, b, *rest, c=1, **extra):\n    return a + c\n\n"
            "class K:\n    def count(self, x):\n        x += 1\n\n"
            "    def stub(self, y):\n        \"\"\"Doc.\"\"\"\n"
            "        raise NotImplementedError\n\n"
            "key = lambda item, unused: item\n")
    assert unread_parameters(text) == [
        (1, "f", "b"), (1, "f", "extra"), (1, "f", "rest"),
        (12, "<lambda>", "unused")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_parameters_are_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def names_read(node):
    """Names that ``node`` reads, imports or looks up as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced_private(texts):
    """(module, line, name) for each module-level ``def _name`` or
    ``class _Name`` that no text in ``texts`` (module name -> source) reads,
    imports or looks up as an attribute outside its own body."""
    defined, used = [], set()
    for module, text in texts.items():
        for top in ast.parse(text).body:
            own = None
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and top.name.startswith("_")
                    and not top.name.startswith("__")):
                own = top.name
                defined.append((module, top.lineno, own))
            used.update(name for name in names_read(top) if name != own)
    return sorted(entry for entry in defined if entry[2] not in used)


def test_unreferenced_private_finds_a_dead_def():
    texts = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    _dead()\n\n"
                "class _Gone:\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b.py": "from .a import _used\n",
    }
    assert unreferenced_private(texts) == [("a.py", 4, "_dead"),
                                           ("a.py", 7, "_Gone")]


def test_private_definitions_are_referenced():
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(SOURCE.glob("*.py"))}
    assert unreferenced_private(texts) == []


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_nodes(scope):
    """The nodes of ``scope`` outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def global_names_read(node):
    """Names that ``node`` reads or imports, leaving out attribute lookups and
    each name read in a scope that binds it itself (as a parameter, an
    assignment or a loop target)."""
    for scope in [node, *(sub for sub in ast.walk(node)
                          if isinstance(sub, SCOPES) and sub is not node)]:
        local = list(local_nodes(scope))
        bound = {sub.arg for sub in local if isinstance(sub, ast.arg)}
        bound.update(sub.id for sub in local if isinstance(sub, ast.Name)
                     and not isinstance(sub.ctx, ast.Load))
        for sub in local:
            if isinstance(sub, ast.Name) and sub.id not in bound:
                yield sub.id
            elif isinstance(sub, ast.alias):
                yield sub.name


def unreferenced_public(texts, module):
    """(line, name) for each public module-level function of ``module`` that
    no text in ``texts`` (module name -> source) reads or imports as a global
    outside its own body."""
    defined = [(top.lineno, top.name) for top in ast.parse(texts[module]).body
               if isinstance(top, ast.FunctionDef)
               and not top.name.startswith("_")]
    used = {name for text in texts.values() for top in ast.parse(text).body
            for name in global_names_read(top)
            if name != getattr(top, "name", None)}
    return [entry for entry in defined if entry[1] not in used]


def test_unreferenced_public_finds_an_uncalled_function():
    texts = {
        "a.py": "def used():\n    pass\n\ndef dead():\n    dead()\n\n"
                "def _private():\n    pass\n",
        "b.py": "from .a import used\n",
    }
    assert unreferenced_public(texts, "a.py") == [(4, "dead")]


def test_unreferenced_public_skips_locals_that_shadow_a_function():
    # every read of ``program`` below is a parameter, a local, a loop
    # target or an attribute, so the function itself is never called
    texts = {
        "a.py": "def program():\n    pass\n\n"
                "def parse(lines):\n    program = []\n"
                "    for line in lines:\n        program.append(line)\n"
                "    return program\n",
        "b.py": "from .a import parse\n\n"
                "def write(program):\n    return program.program\n\n"
                "def show(items):\n    for program in items:\n"
                "        print(program)\n\n"
                "key = lambda program: program\n",
    }
    assert unreferenced_public(texts, "a.py") == [(1, "program")]


# Public functions that nothing in the library calls, each kept for a
# caller outside it.
UNCALLED_PUBLIC = {
    # the benchmark's tracer wraps them by name (cgabench/tracing.py,
    # LANGOPS); they go once it stops
    ("langops.py", "image"), ("langops.py", "preimage"),
    # the benchmark's decoders of Baumslag-Solitar normal forms
    ("groups.py", "bs_encode"), ("groups.py", "bs_decode"),
    # the one-successor-at-a-time reference loop the tests compare against
    ("shortlex.py", "iter_shortlex"),
}


def test_public_functions_are_called():
    # re-exports in __init__.py are not calls
    texts = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    uncalled = {(module, name) for module in texts
                for _, name in unreferenced_public(texts, module)}
    assert uncalled == UNCALLED_PUBLIC


def cga_attributes(text):
    """(line, name) for each attribute name or string constant in ``text``
    that starts with ``_cga_``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name.startswith("_cga_"):
            found.append((node.lineno, name))
    return sorted(found)


def test_cga_attributes_finds_both_spellings():
    text = ('m._cga_stuck = {}\nt = getattr(m, "_cga_steps", None)\n'
            'n = "a _cga_ note"\nsearch = m._search\n')
    assert cga_attributes(text) == [(1, "_cga_stuck"), (2, "_cga_steps")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "shortlex.py"],
                         ids=lambda p: p.name)
def test_search_state_lives_in_one_object(path):
    # a machine's search state is its _Search (gastructure), not ad hoc
    # attributes; shortlex keeps one walk object per oracle, out of scope
    assert cga_attributes(path.read_text(encoding="utf-8")) == []


def is_dataclass(node):
    """Whether a ClassDef is decorated @dataclass or @dataclass(...)."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def unread_members(texts):
    """(module, class, name) for each public method, property or dataclass
    field of a class in ``texts`` (module name -> source) whose name no text
    loads as an attribute."""
    members, loaded = [], set()
    for module, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif (isinstance(item, ast.AnnAssign) and is_dataclass(node)
                        and isinstance(item.target, ast.Name)):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.append((module, node.name, name))
    return sorted(entry for entry in members if entry[2] not in loaded)


def test_unread_members_finds_an_unread_method_and_field():
    texts = {
        "a.py": "from dataclasses import dataclass\n\n@dataclass\nclass R:\n"
                "    used: int\n    dead: int = 0\n    plain = 1\n\n"
                "    def run(self):\n        return self.used\n\n"
                "    def stop(self):\n        pass\n\n"
                "    def _hidden(self):\n        pass\n\n"
                "class P:\n    x: int\n",
        "b.py": "def go(r):\n    r.run()\n    r.stop = None\n",
    }
    assert unread_members(texts) == [("a.py", "R", "dead"), ("a.py", "R", "stop")]


# Public members that nothing in the library reads, each kept for a reader
# outside it.
UNREAD_PUBLIC = {
    # the benchmark's verify and nf workloads ask the oracles (cgabench)
    ("groups.py", "GroupOracle", "is_trivial"),
    ("groups.py", "GroupOracle", "equal"),
    # trace records: a caller of normal_form(with_trace=True) reads them
    ("gastructure.py", "StepTrace", "input_length"),
    ("gastructure.py", "StepTrace", "output"),
    ("gastructure.py", "NormalFormTrace", "chosen"),
    # the tests check which family members a structure has built
    ("gastructure.py", "GraphAutomaticStructure", "instantiated_family_indices"),
    # the word map that goes with image and preimage of the same homomorphism
    ("langops.py", "LetterHomomorphism", "apply"),
}


def test_public_members_are_read():
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(SOURCE.glob("*.py"))}
    assert set(unread_members(texts)) == UNREAD_PUBLIC

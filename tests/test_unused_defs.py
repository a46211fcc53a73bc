"""No function or method of the package goes unreferenced, none serves the
tests alone, and no defaulted parameter goes unpassed.

A def counts as used when its name appears in src/, tests/ or bench/: a
method as an attribute (obj.name), any other def as a name, an attribute
(name(...) or module.name) or a string that spells it, since
getattr(module, name) reaches a module-level def by name.  Inside a class
that declares name as a class-level field and defines no method of that
name, self.name reads the field, so it references no method.  Dunder
methods are called by the language and are skipped.  A def that only tests/
uses belongs in tests/, unless TEST_ONLY lists it with its reason.

A defaulted parameter of a def counts as passed when a call in src/, tests/
or bench/ passes it by keyword, by position, or through * or ** unpacking.
A call reaches a module-level def by its name or as an attribute, a method
as an attribute, and __init__ by the name of its class.  A parameter whose
calls the scan cannot resolve is listed in UNRESOLVED with the reason.

A defaulted field of a @dataclass counts as set the same way, by a call of
the class by name or as an attribute, or by cls(...) in one of the class's
own methods.
A dataclasses.replace call sets each field it names by keyword, and under **
each field that a string in the unpacked expression spells.  A field whose
setters the scan cannot resolve is listed in UNRESOLVED_FIELDS.

No defaulted parameter or dataclass field of src/ is passed or set by
tests/ alone: calls from src/ and bench/ pass or set each one, unless
TEST_SEAMS lists it with its reason.  A knob with one value in use is a
constant.

Every field of a @dataclass of src/ is read as an attribute (obj.name)
somewhere in src/, unless UNREAD_FIELDS lists it with its reason; a field
that only the tests read goes.

Every string key of a details dict that a check in verify.py builds is
read somewhere in src/, tests/ or bench/, as ["key"] or .get("key"); a key
that nothing reads goes.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kernelbound"


def field_reads(tree: ast.AST) -> set:
    """The ids of the self.<name> nodes that read a class-level field of
    their class, one that declares no method of that name."""
    reads = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [node for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        targets = [node.target for node in cls.body if isinstance(node, ast.AnnAssign)]
        targets += [t for node in cls.body if isinstance(node, ast.Assign) for t in node.targets]
        fields = {t.id for t in targets if isinstance(t, ast.Name)}
        fields -= {node.name for node in methods}
        reads.update(id(node) for method in methods for node in ast.walk(method)
                     if isinstance(node, ast.Attribute) and node.attr in fields
                     and isinstance(node.value, ast.Name) and node.value.id == "self")
    return reads


def references(sources: list) -> tuple:
    """The names and the attribute names that the sources read or write."""
    names, attrs = set(), set()
    for source in sources:
        tree = ast.parse(source)
        skip = field_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and id(node) not in skip:
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names, attrs


def unused_defs(source: str, names: set, attrs: set) -> list:
    """The non-dunder defs of source that nothing references, sorted."""
    tree = ast.parse(source)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    unused = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name.startswith("__") and node.name.endswith("__"):
            continue
        seen = attrs if id(node) in methods else names | attrs
        if node.name not in seen:
            unused.add(node.name)
    return sorted(unused)


def test_scan_finds_an_unused_function_and_method():
    source = ("def used():\n    pass\n"
              "def unused():\n    pass\n"
              "class A:\n"
              "    def __len__(self):\n        return 0\n"
              "    def called(self):\n        return used()\n"
              "    def never(self):\n        pass\n"
              "A().called()\n")
    assert unused_defs(source, *references([source])) == ["never", "unused"]


def test_a_method_needs_an_attribute_reference():
    # a local variable that shares a method's name does not call the method
    source = "class Spec:\n    def VP(self):\n        pass\n"
    names, attrs = references([source, "VP = 1\nprint(VP)\n"])
    assert unused_defs(source, names, attrs) == ["VP"]
    assert unused_defs(source, *references([source, "Spec().VP()\n"])) == []


def test_a_field_read_does_not_reference_a_method_of_that_name():
    # Field.component is dead; Shape.component is a field that Shape reads
    source = ("from dataclasses import dataclass\n"
              "class Field:\n"
              "    def component(self, k):\n        return k\n"
              "@dataclass\n"
              "class Shape:\n"
              "    component: int\n"
              "    def peak(self):\n        return self.component\n"
              "Field()\nShape(0).peak()\n")
    assert unused_defs(source, *references([source])) == ["component"]
    # any other attribute read still counts
    assert unused_defs(source, *references([source, "f.component(0)\n"])) == []


def test_a_string_names_a_function_but_not_a_method():
    # cmd_verify runs each check function by the name its declaration holds
    source = "def check_mass():\n    pass\nclass Spec:\n    def value(self):\n        pass\n"
    names, attrs = references([source, "name = 'check_mass'\nrow = {'value': 1}\n"])
    assert unused_defs(source, names, attrs) == ["value"]


# (module, def) pairs of src/ that only tests/ use, each with why it stays
TEST_ONLY = {
    ("bounds.py", "solve_X0"): "the scalar step of the reduction to H, stated in the "
                               "module docstring; acceptance criterion 9 is its contract",
    ("lyapunov.py", "value"): "SpaceTimeWeight.value, a spec's Lyapunov function itself "
                              "(spec.weight().value) with its overflow guard",
    ("lyapunov.py", "g"): "TimeLyapunovSpec.g, the growth rate g(t) of the paper, whose "
                          "closed-form integral G the package uses",
}


def sources(folders: tuple) -> list:
    """The text of every .py file under the folders."""
    return [path.read_text(encoding="utf-8")
            for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))]


def src_modules() -> dict:
    """The text of each module of src/, by file name."""
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def unreferenced(folders: tuple) -> set:
    """The (module, def) pairs of src/ that no source under folders references."""
    names, attrs = references(sources(folders))
    return {(path.name, name) for path in sorted(SRC.glob("*.py"))
            for name in unused_defs(path.read_text(encoding="utf-8"), names, attrs)}


def test_package_has_no_unreferenced_def():
    assert unreferenced(("src", "tests", "bench")) == set()


def test_no_src_def_serves_the_tests_alone():
    # bench/ drives the package from outside, so it counts as a user
    assert unreferenced(("src", "bench")) == set(TEST_ONLY)


# ---------------------------------------------------------------------------
# defaulted parameters that no call passes
# ---------------------------------------------------------------------------

def defaulted_params(source: str) -> list:
    """(def, class or None, parameter, position) for each defaulted parameter
    of the defs of source; position is the index of the call argument that
    fills it, None for a keyword-only parameter."""
    tree = ast.parse(source)
    owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body}
    params = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        static = any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                     for dec in node.decorator_list)
        bound = cls is not None and not static  # self or cls is not passed
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params += [(node.name, cls, arg.arg, i - bound)
                   for i, arg in enumerate(positional) if i >= first]
        params += [(node.name, cls, arg.arg, None)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]
    return params


def call_arguments(sources: list) -> dict:
    """(callee name, called as an attribute) -> (positional count, keywords)
    of every call in the sources.  A *-unpacking fills every position, and a
    **-unpacking every keyword, which shows as None among the keywords."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                callee = (func.id, False)
            elif isinstance(func, ast.Attribute):
                callee = (func.attr, True)
            else:
                continue
            calls.setdefault(callee, []).append(arguments(node))
    return calls


def arguments(call: ast.Call) -> tuple:
    """The positional count and the keywords of a call, unpacking counted as
    call_arguments counts it."""
    count = math.inf if any(isinstance(arg, ast.Starred) for arg in call.args) \
        else len(call.args)
    return count, {kw.arg for kw in call.keywords}


def unpassed_params(source: str, calls: dict) -> list:
    """The (def, parameter) pairs of source's defaulted parameters that no
    call passes, sorted."""
    unpassed = set()
    for name, cls, param, position in defaulted_params(source):
        if name == "__init__":
            callees = [(cls, False), (cls, True)]
        elif cls is not None:
            callees = [(name, True)]
        else:
            callees = [(name, False), (name, True)]
        if not any(None in keywords or param in keywords
                   or position is not None and position < count
                   for callee in callees for count, keywords in calls.get(callee, ())):
            unpassed.add((name, param))
    return sorted(unpassed)


def test_scan_finds_a_planted_unused_parameter():
    source = ("def f(a, b=1, c=2, *, d=3, planted=4):\n    pass\n"
              "class K:\n"
              "    def __init__(self, x=0, y=0):\n        pass\n"
              "    def m(self, z=0):\n        pass\n"
              "    @staticmethod\n"
              "    def s(w=0):\n        pass\n"
              "f(0, 1, d=2)\n"
              "K(1).m(2)\n"
              "K.s(3)\n")
    assert unpassed_params(source, call_arguments([source])) == [
        ("__init__", "y"), ("f", "c"), ("f", "planted")]
    # unpacking passes every position, or every keyword
    for call in ("f(*args, d=1)\nK(*args)\n", "f(**kw)\nK(**kw)\n"):
        assert unpassed_params(source, call_arguments([source, call])) == \
            ([("f", "planted")] if "*args" in call else [])


def test_a_method_parameter_needs_an_attribute_call():
    # a plain call of a same-named function does not call the method
    source = "class A:\n    def run(self, n=1):\n        pass\n"
    assert unpassed_params(source, call_arguments([source, "run(2)\n"])) == [("run", "n")]
    assert unpassed_params(source, call_arguments([source, "A().run(2)\n"])) == []


# (module, def, parameter) triples that no call the scan resolves passes,
# each with where it is passed or why it stays
UNRESOLVED = {}


def test_every_defaulted_parameter_is_passed():
    calls = call_arguments(sources(("src", "tests", "bench")))
    unpassed = {(module, name, param) for module, source in src_modules().items()
                for name, param in unpassed_params(source, calls)}
    # an entry of UNRESOLVED that the scan resolves is stale
    assert unpassed == set(UNRESOLVED)


# ---------------------------------------------------------------------------
# defaulted dataclass fields that no call sets
# ---------------------------------------------------------------------------

def _named(node: ast.AST, name: str) -> bool:
    """Whether node is name or an attribute access .name."""
    return isinstance(node, ast.Name) and node.id == name \
        or isinstance(node, ast.Attribute) and node.attr == name


def dataclass_fields(source: str) -> list:
    """(class, field, position) for each defaulted field of the @dataclass
    classes of source.  position is the index of the call argument that
    fills the field."""
    fields = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not any(
                _named(dec.func if isinstance(dec, ast.Call) else dec, "dataclass")
                for dec in cls.decorator_list):
            continue
        declared = [node for node in cls.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        fields += [(cls.name, node.target.id, i)
                   for i, node in enumerate(declared) if node.value is not None]
    return fields


def own_cls_calls(source: str) -> dict:
    """class -> (positional count, keywords) of each cls(...) call in the
    class's own methods."""
    calls = {}
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef):
            calls[cls.name] = [arguments(node) for method in cls.body
                               if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                               for node in ast.walk(method)
                               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                               and node.func.id == "cls"]
    return calls


def replaced_names(sources: list) -> set:
    """The field names that some replace(...) call sets: its keywords, and the
    strings inside each ** it unpacks."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call) or not _named(node.func, "replace"):
                continue
            for kw in node.keywords:
                names.update([kw.arg] if kw.arg is not None else
                             (c.value for c in ast.walk(kw.value)
                              if isinstance(c, ast.Constant) and isinstance(c.value, str)))
    return names


def unset_fields(source: str, calls: dict, replaced: set) -> list:
    """The (class, field) pairs of source's defaulted dataclass fields that no
    call sets, sorted."""
    own = own_cls_calls(source)
    unset = set()
    for cls, name, position in dataclass_fields(source):
        made = [c for attr in (False, True) for c in calls.get((cls, attr), ())] \
            + own.get(cls, [])
        if name not in replaced and not any(None in keywords or name in keywords
                                            or position < count
                                            for count, keywords in made):
            unset.add((cls, name))
    return sorted(unset)


def test_scan_finds_a_planted_unset_field():
    source = ("from dataclasses import dataclass, field, replace\n"
              "@dataclass(frozen=True)\n"
              "class Check:\n"
              "    a: int\n"
              "    b: int = 0\n"
              "    c: int = 1\n"
              "    d: dict = field(default_factory=dict)\n"
              "    e: int = 2\n"
              "    planted: int = 3\n"
              "    @classmethod\n"
              "    def make(cls):\n        return cls(0, d={})\n"
              "@dataclass\n"
              "class Other:\n"
              "    f: int = 0\n"
              "    g: int = 0\n"
              "def run(cls, args):\n    return cls(*args, planted=1)\n"
              "Check(0, 1, 2)\n"
              "replace(Check.make(), **{k: 1 for k in ('e',)})\n"
              "mod.Other(g=1)\n")
    calls = call_arguments([source])
    assert unset_fields(source, calls, replaced_names([source])) == [
        ("Check", "planted"), ("Other", "f")]
    # unpacking sets every field, and a string under ** in replace the one it spells
    for extra in ("Check(*args)\nOther(**kw)\n", "replace(x, **{'planted': 1, 'f': 2})\n"):
        both = [source, extra]
        assert unset_fields(source, call_arguments(both), replaced_names(both)) == []


# (module, class, field) triples whose setters the scan cannot resolve, each
# with where the field is set or why it stays
UNRESOLVED_FIELDS = {
    ("config.py", "RunConfig", "values"): "parse_config_text fills the values of a "
                                          "RunConfig it made in place",
    ("config.py", "RunConfig", "lines"): "parse_config_text fills the line of each "
                                         "value in place",
}


def test_every_defaulted_dataclass_field_is_set():
    users = sources(("src", "tests", "bench"))
    calls, replaced = call_arguments(users), replaced_names(users)
    unset = {(module, cls, name) for module, source in src_modules().items()
             for cls, name in unset_fields(source, calls, replaced)}
    # an entry of UNRESOLVED_FIELDS that the scan resolves is stale
    assert unset == set(UNRESOLVED_FIELDS)


# ---------------------------------------------------------------------------
# knobs that only the tests set
# ---------------------------------------------------------------------------

def knobs_left_unset(modules: dict, users: list) -> set:
    """The (module, def or class, name) triples of the defaulted parameters
    and dataclass fields of modules (file name -> source) that no call in
    users passes or sets."""
    calls, replaced = call_arguments(users), replaced_names(users)
    return {(module, owner, name) for module, source in modules.items()
            for owner, name in unpassed_params(source, calls)
            + unset_fields(source, calls, replaced)}


def test_scan_finds_a_planted_knob_that_only_tests_set():
    module = ("from dataclasses import dataclass\n"
              "def f(a, used=1, planted=2):\n    pass\n"
              "@dataclass\n"
              "class Probe:\n"
              "    n: int = 0\n"
              "    planted: int = 0\n"
              "f(0, used=3)\n"
              "Probe(n=1)\n")
    test = "f(0, 1, 2)\nProbe(planted=1)\n"
    assert knobs_left_unset({"m.py": module}, [module]) == {
        ("m.py", "f", "planted"), ("m.py", "Probe", "planted")}
    # a test's call sets them, but it does not count for src/ and bench/
    assert knobs_left_unset({"m.py": module}, [module, test]) == set()


# (module, def or class, parameter or field) triples of src/ that only
# tests/ pass or set, or whose setters the scan cannot resolve, each with
# why the seam stays
TEST_SEAMS = {
    ("bounds.py", "checked_c_hat", "c_hat"): "cmd_synth passes it through cli._key_rule's "
                                             "*args, which the scan cannot follow",
    ("lyapunov.py", "synth_poly", "target"): "cli._synthesize passes it to the synth "
                                             "function it holds in the variable fn",
    ("lyapunov.py", "synth_exp", "target"): "cli._synthesize passes it to the synth "
                                            "function it holds in the variable fn",
    ("lyapunov.py", "_quad", "limit"): "the bisection limit of the error path, which a "
                                       "test lowers to reach that path",
    ("config.py", "RunConfig", "values"): "parse_config_text fills the values of a "
                                          "RunConfig it made in place",
    ("config.py", "RunConfig", "lines"): "parse_config_text fills the line of each "
                                         "value in place",
    ("verify.py", "Support", "support"): "a probe knob: a wrong support is the named "
                                         "control that the support check fails",
    ("verify.py", "MassAndPositivity", "row"): "a probe knob: a given row-sum bound is the "
                                               "control that the mass check fails",
    ("verify.py", "LyapunovIntegrability", "boundary_fraction"): "a probe knob: a tiny "
        "fraction is the control that makes integrability inconclusive",
    ("verify.py", "Domination", "n_random"): "a probe knob: a control on hand-made "
                                             "outputs measures the kernel level alone",
    ("verify.py", "ChapmanKolmogorov", "variant"): "a probe knob: a test composes the "
                                                   "signed variant too",
}


def test_no_knob_is_set_by_the_tests_alone():
    # bench/ drives the package from outside, so its calls count
    unset = knobs_left_unset(src_modules(), sources(("src", "bench")))
    # an entry of TEST_SEAMS that src/ or bench/ sets is stale
    assert unset == set(TEST_SEAMS)


# ---------------------------------------------------------------------------
# dataclass fields that nothing reads
# ---------------------------------------------------------------------------

def declared_fields(source: str) -> list:
    """(class, field) for each field of the @dataclass classes of source."""
    return [(cls.name, node.target.id) for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) and any(
                _named(dec.func if isinstance(dec, ast.Call) else dec, "dataclass")
                for dec in cls.decorator_list)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def attribute_reads(sources: list) -> set:
    """The attribute names that the sources read as obj.name.  No source of
    src/ reads a dataclass field by getattr, so a string counts for
    nothing: "ledger" names a record kind, not a read of a ledger field."""
    return {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(source: str, reads: set) -> list:
    """The (class, field) pairs of source's dataclass fields that reads
    lacks, sorted."""
    return sorted((cls, name) for cls, name in declared_fields(source) if name not in reads)


def test_scan_finds_a_planted_unread_field():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class Report:\n"
              "    value: float\n"
              "    named: str\n"
              "    planted: str = ''\n"
              "    def line(self):\n        return f'{self.value}'\n"
              "class Plain:\n"
              "    unread: int\n"
              "r = Report(1.0, 'a', planted='b')\n"
              "print(r.named)\n")
    # a keyword that sets a field, a local of the same name or a write reads
    # nothing, and a class that is no dataclass has no fields
    for other in ("planted = 1\n", "r.planted = 1\n"):
        assert unread_fields(source, attribute_reads([source, other])) == [
            ("Report", "planted")]
    assert unread_fields(source, attribute_reads([source, "r.planted\n"])) == []


# (module, class, field) triples of src/ whose field nothing in src/ reads,
# each with why it stays
UNREAD_FIELDS = {}


def test_every_dataclass_field_is_read_in_src():
    reads = attribute_reads([path.read_text(encoding="utf-8")
                             for path in sorted(SRC.glob("*.py"))])
    unread = {(path.name, cls, name) for path in sorted(SRC.glob("*.py"))
              for cls, name in unread_fields(path.read_text(encoding="utf-8"), reads)}
    # an entry of UNREAD_FIELDS that src/ reads is stale
    assert unread == set(UNREAD_FIELDS)


# ---------------------------------------------------------------------------
# details keys that nothing reads
# ---------------------------------------------------------------------------

def details_keys(source: str) -> set:
    """The string keys of each dict literal that a check of source passes to
    self.result as its details, fourth by position or by keyword."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not _named(node.func, "result"):
            continue
        given = node.args[3:4] + [kw.value for kw in node.keywords if kw.arg == "details"]
        keys.update(key.value for details in given if isinstance(details, ast.Dict)
                    for key in details.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str))
    return keys


def key_reads(sources: list) -> set:
    """The string keys that the sources read, as obj["key"] or obj.get("key")."""
    reads = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                key = node.slice
            elif isinstance(node, ast.Call) and _named(node.func, "get") and node.args:
                key = node.args[0]
            else:
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                reads.add(key.value)
    return reads


def test_scan_finds_a_planted_unread_details_key():
    source = ("class Check:\n"
              "    def measure(self, rows):\n"
              "        table = {'unused': 1}\n"
              "        self.result(0.0, 1.0, (), {'samples': rows, 'planted': 2})\n"
              "        return self.result(0.0, 1.0, (), details={'dt': 0.1, 'kept': 3})\n"
              "res.details['samples']\n"
              "res.details.get('dt')\n"
              "d = res.details\n"
              "print(d['kept'])\n")
    # a dict that is no check's details holds no key, and a write reads none
    assert details_keys(source) == {"samples", "planted", "dt", "kept"}
    assert details_keys(source) - key_reads([source, "res.details['planted'] = 1\n"]) \
        == {"planted"}
    assert details_keys(source) - key_reads([source, "res.details.get('planted')\n"]) == set()


def test_every_details_key_a_check_builds_is_read():
    built = details_keys((SRC / "verify.py").read_text(encoding="utf-8"))
    assert "samples" in built and "C_cal" in built
    assert built - key_reads(sources(("src", "tests", "bench"))) == set()

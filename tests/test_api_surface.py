"""Dead-code guard: every public function, method and field of the package is used by it.

A public top-level function counts as used when src/rpde_lab names it outside
its own definition (a load of the name, an import or an attribute load); a
public method (properties included) when an attribute load of its name
appears outside its own definition. A name loaded inside a function that
binds that name itself (an argument or an assigned local) is that local, not
a use. A public field, a class-level annotation (a dataclass field) or a
__slots__ entry, counts as read when an attribute load of its name, or a
string constant equal to it (a getattr through a name table), appears
outside its declaration: a store such as self.x = x is not a read, but a
method of its own class that reads it is. A function or method used only by
tests stays only if KEEP gives the paper estimate it serves.

A method name that two classes define counts as used by an access to either,
so such a name must be listed in SHARED with the use of each definition.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rpde_lab"

KEEP = {
    "solver.rough_convolution": "sewing-germ defect of order 3 gamma - beta_out",
    "solver.composition_norm": "composition estimate |G(y)|_D <= C rho (1 + |y|_D)",
    "attractor.discrete_chain_bound": "chain form of the a-priori bound",
    "roughpath.rough_metric": "convergence of nested lifts",
    "roughpath.coarsen": "convergence of nested lifts; the coarse solver grid",
    "roughpath.shift": "theta_r, the shift of the metric dynamical system, pinned by the "
                       "cocycle tests",
    "attractor.absorbing_radius": "traced by perfbench/launch.py",
}

SHARED = {
    "dt": {
        "gronwall.BoundCurve": "the forcing curve's step, read by singular_gronwall",
        "solver.ControlledPath": "the trajectory's step, matched to the noise grid by "
                                 "controlled_norm, rough_convolution and _traj_index",
    },
}


def _sources():
    return [(path.stem, path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]


def _bound_names(func) -> set:
    """The names a function binds itself: its arguments and the names it stores."""
    args = func.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    return bound | {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}


def _name_loads(node, shadowed=frozenset()):
    """The Name loads under node, except those a function around them binds itself."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _bound_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _name_loads(child, shadowed)


def _fields(cls) -> list:
    """(name, node) of the class-level annotations and __slots__ entries of cls."""
    out = []
    for sub in cls.body:
        if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
            out.append((sub.target.id, sub))
        elif isinstance(sub, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in sub.targets):
            out += [(elt.value, sub) for elt in ast.walk(sub.value)
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
    return out


def _scan(sources=None):
    """Public definitions as (qualified name, name, kind, module, span), kind
    "function", "method" or "field" and span the lines of the definition,
    whose uses do not count, and the uses as
    (name, module, line) of names, of attribute loads and of string constants."""
    defs, names, attrs, strings = [], [], [], []
    for stem, text in sources or _sources():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{stem}.{node.name}", node.name, "function", stem, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{stem}.{node.name}.{sub.name}", sub.name, "method", stem, sub)
                         for sub in node.body if isinstance(sub, ast.FunctionDef)]
                defs += [(f"{stem}.{node.name}.{name}", name, "field", stem, decl)
                         for name, decl in _fields(node)]
        names += [(node.id, stem, node.lineno) for node in _name_loads(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names += [(alias.name, stem, node.lineno) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.append((node.attr, stem, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.append((node.value, stem, node.lineno))
    defs = [(q, name, kind, stem, (node.lineno, node.end_lineno))
            for q, name, kind, stem, node in defs if not name.startswith("_")]
    return defs, {"function": names + attrs, "method": attrs, "field": attrs + strings}


def _unreferenced(sources=None):
    defs, refs = _scan(sources)
    return [qualname for qualname, name, kind, stem, (first, last) in defs
            if not any(ref == name and not (where == stem and first <= line <= last)
                       for ref, where, line in refs[kind])]


def test_every_public_function_is_used_or_kept():
    assert [name for name in _unreferenced() if name not in KEEP] == []


def test_keep_names_exist():
    assert set(KEEP) <= {d[0] for d in _scan()[0]}


def test_shared_method_names_are_listed():
    owners = {}
    for qualname, name, kind, _, _ in _scan()[0]:
        if kind == "method":
            owners.setdefault(name, set()).add(qualname.rsplit(".", 1)[0])
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert shared == {name: set(uses) for name, uses in SHARED.items()}


def test_guard_sees_through_shadowing_locals_and_unread_fields():
    lib = '''
from dataclasses import dataclass


def shift(x):
    return x


@dataclass
class Report:
    size: int
    label: str

    def describe(self):
        return self.label


def caller(shift):
    return shift + 1


def local():
    shift = 2
    return shift


def reader(rep):
    return rep.size, rep.describe(), getattr(rep, "label")
'''
    assert _unreferenced([("lib", lib)]) == ["lib.shift", "lib.caller", "lib.local", "lib.reader"]
    used = lib + "\n\ndef user():\n    return shift(1)\n"
    assert "lib.shift" not in _unreferenced([("lib", used)])
    unread = lib.replace("label: str", "label: str\n    spare: float = 0.0")
    assert "lib.Report.spare" in _unreferenced([("lib", unread)])

"""Dead-code guard: every public function and method of the package is used by it.

A public top-level function counts as used when src/rpde_lab names it outside
its own definition (a call, an import or an attribute access); a public method
(properties included) when an attribute access of its name appears outside its
own definition. A name used only by tests stays only if KEEP gives the paper
estimate or the perfbench trace it serves.

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
    "spectral.SpectralModel.apply_f": "traced by perfbench/launch.py",
    "spectral.SpectralModel.apply_g": "traced by perfbench/launch.py",
    "spectral.SpectralModel.apply_dg": "traced by perfbench/launch.py",
}

SHARED = {
    "dt": {
        "gronwall.BoundCurve": "the forcing curve's step, read by singular_gronwall",
        "solver.ControlledPath": "the trajectory's step, matched to the noise grid by "
                                 "controlled_norm, rough_convolution and _traj_index",
    },
}


def _scan():
    """Public definitions as (qualified name, name, is method, file, node), and
    the (name, file, line) of every name and of every attribute access."""
    defs, names, attrs = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name, False, path, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{sub.name}", sub.name, True, path, sub)
                         for sub in node.body if isinstance(sub, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((node.id, path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                names += [(alias.name, path, node.lineno) for alias in node.names]
            elif isinstance(node, ast.Attribute):
                attrs.append((node.attr, path, node.lineno))
    return [d for d in defs if not d[1].startswith("_")], names, attrs


def _unreferenced():
    defs, names, attrs = _scan()
    unused = []
    for qualname, name, method, path, node in defs:
        refs = attrs if method else names + attrs
        if not any(ref == name and not (where == path and node.lineno <= line <= node.end_lineno)
                   for ref, where, line in refs):
            unused.append(qualname)
    return unused


def test_every_public_function_is_used_or_kept():
    assert [name for name in _unreferenced() if name not in KEEP] == []


def test_keep_names_exist():
    assert set(KEEP) <= {d[0] for d in _scan()[0]}


def test_shared_method_names_are_listed():
    owners = {}
    for qualname, name, method, _, _ in _scan()[0]:
        if method:
            owners.setdefault(name, set()).add(qualname.rsplit(".", 1)[0])
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert shared == {name: set(uses) for name, uses in SHARED.items()}

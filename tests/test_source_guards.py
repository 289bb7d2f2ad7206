"""Checks on the library source itself."""
import ast
import importlib
import inspect
from pathlib import Path

from mcassort import mcdlp, simlab

SRC = Path(__file__).resolve().parents[1] / "src" / "mcassort"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so an invariant that protects a
    # reported number must raise a real exception instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/mcassort: {found}"


def test_exported_names_resolve():
    # a stale __all__ entry does not fail at import, only at a star-import;
    # and every name the package re-exports is public in its own module
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"mcassort.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    package = importlib.import_module("mcassort")
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            public = importlib.import_module(f"mcassort.{node.module}").__all__
            missing += [f"mcassort.{a.name} (not in {node.module}.__all__)" for a in node.names
                        if a.name not in public or not hasattr(package, a.name)]
    assert not missing, f"exported names that do not resolve: {missing}"


PERFBENCH = SRC.parents[1] / "perfbench"
# Call arguments each tracer size function reads by name (through ``_bound``);
# ``_cells`` names its argument in the layer entry itself.
SIZE_ARGS = {
    "_lp_size": {"model"},
    "_build_size": set(),
    "_colgen_size": set(),
    "_factors_size": set(),
    "_alg6_size": {"inst", "replicas"},
    "_steps_into": {"inst", "replicas"},
    "_sweep_size": {"spec", "policies"},
}


# The name each tracer size function gives the LP model it reads attributes
# of: lpcore.solve's bound ``model`` argument, and mcdlp.build's result.
MODEL_NAMES = {"_lp_size": "m", "_build_size": "res"}


def _model_attrs() -> set[str]:
    """The attributes the tracer's size functions read off an LP model."""
    attrs = set()
    for fn in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in MODEL_NAMES:
            attrs |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id == MODEL_NAMES[fn.name]}
    return attrs


def _module_tuples(path: Path, name: str):
    """The ``(module, "attr", ...)`` tuples assigned or appended to ``name``."""
    out = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            out += [tuple(e.elts) for e in node.value.elts]
        else:  # [(mod, "attr") for mod in (a, b, ...)]
            comp = node.value
            mods = comp.generators[0].iter.elts
            out += [(m, *comp.elt.elts[1:]) for m in mods]
    return [(mod.id, attr.value, rest) for mod, attr, *rest in out]


def test_benchmark_bindings_resolve():
    # perfbench's tracer rebinds these names and reads these arguments and
    # model attributes, and its tests expect these from-import copies; a
    # rename in src/ breaks the benchmark without failing any library test
    bindings = _module_tuples(PERFBENCH / "tracer.py", "LAYERS")
    bindings += _module_tuples(PERFBENCH / "tracer.py", "COUNTED")
    copies = _module_tuples(PERFBENCH / "test_perfbench.py", "COPIES")
    assert len(bindings) >= 15 and len(copies) >= 10
    missing, checked = [], 0
    for mod_name, attr, rest in bindings + copies:
        mod = importlib.import_module(f"mcassort.{mod_name}")
        if not hasattr(mod, attr):
            missing.append(f"{mod_name}.{attr}")
            continue
        if len(rest) < 2 or isinstance(rest[1], ast.Constant):
            continue  # a counted name, a copy, or a layer without a size function
        size = rest[1]
        if isinstance(size, ast.Call) and size.func.id == "_cells":
            wanted = {size.args[1].value}
        else:
            wanted = SIZE_ARGS[size.func.id if isinstance(size, ast.Call) else size.id]
        params = inspect.signature(getattr(mod, attr)).parameters
        missing += [f"{mod_name}.{attr}({arg}=)" for arg in sorted(wanted - set(params))]
        checked += bool(wanted)
    assert checked, "no layer's bound arguments were parsed"
    attrs = _model_attrs()
    assert {"rows", "objective"} <= attrs, attrs
    model = mcdlp.build(simlab.gen_hardness_instance(3), mcdlp.McdlpVariant.SINGLE_ITEM)
    missing += [f"LpModel.{attr}" for attr in sorted(attrs) if not hasattr(model, attr)]
    assert not missing, f"names the benchmark binds that do not resolve: {missing}"


# The flip path's hot functions reduce their (rows x coins) blocks with
# column loops (``rounding._fold_last``); numpy's reduction along a short row
# axis is several times slower there.
FLIP_PATH = {"blackbox.py": ["batch_flip"], "rounding.py": ["gkps_round_batch"],
             "attenuate.py": ["_Kernel", "_coins"]}
ROW_REDUCTIONS = {"min", "max", "sum", "any", "all"}


def _row_axis_reductions(fn: ast.AST) -> list[str]:
    """``.min/.max/.sum/.any/.all`` calls in ``fn`` with axis 1, 2 or -1,
    by keyword or positionally."""
    found = []
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ROW_REDUCTIONS):
            continue
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"] + list(node.args)
        for axis in axes:
            try:
                value = ast.literal_eval(axis)
            except (ValueError, TypeError):
                continue
            if isinstance(value, int) and value in (1, 2, -1):
                found.append(f"line {node.lineno}: .{node.func.attr}(axis={value})")
    return found


def _function(tree: ast.AST, path: list[str]) -> ast.AST:
    for name in path:
        tree = next(node for node in tree.body if getattr(node, "name", None) == name)
    return tree


def test_flip_path_has_no_row_axis_reductions():
    assert _row_axis_reductions(ast.parse("a.min(axis=1); np.sum(b, -1); c.any(2); d.max(axis=0)")) == [
        "line 1: .min(axis=1)", "line 1: .sum(axis=-1)", "line 1: .any(axis=2)"]
    found = {}
    for module, path in FLIP_PATH.items():
        fn = _function(ast.parse((SRC / module).read_text()), path)
        if hits := _row_axis_reductions(fn):
            found[f"{module}:{'.'.join(path)}"] = hits
    assert not found, f"row-axis reductions on the flip path: {found}"

"""No dead API: every top-level function and class and every method in
src/ramcell is reachable by name from the CLI's entry point, from
module-level code or from the acceptance suite, or is listed below with
the reason it stays."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ramcell"

UNREACHED = {
    "config.loads_config": "load_config of a string; the config tests load through it",
    "cure.DepositionMap.layer_summary": "per-layer dose and cure figures for the report",
    "geometry.wrap_angle": "scalar oracle of wrap_angles",
}


def _names(nodes) -> set[str]:
    """Every name and attribute the AST nodes refer to."""
    return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_is_reachable_or_listed():
    # "module.name" or "module.Class.method" -> (name, own nodes, class)
    defs, top = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.append(node)
                continue
            own = [node]
            if isinstance(node, ast.ClassDef):
                own = [*node.decorator_list, *node.bases, *node.keywords]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = (item.name, [item],
                                                                        node.name)
                    else:
                        own.append(item)
            defs[f"{path.stem}.{node.name}"] = (node.name, own, None)
    acceptance = ast.parse((TESTS / "test_acceptance.py").read_text())
    reached, done = _names(top) | _names([acceptance]) | {"main"}, set()
    while True:
        # a dunder method is reached with its class
        new = [key for key, (name, _, cls) in defs.items() if key not in done and (
            name in reached or (cls in reached and name.startswith("__")))]
        if not new:
            break
        done.update(new)
        reached |= _names([node for key in new for node in defs[key][1]])
    assert sorted(set(defs) - done) == sorted(UNREACHED)

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conekit"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# Defined in src/ and named nowhere in it, on purpose.
ALLOWED = {
    # the dense re-check of the discrepancy solve; no verdict reads it yet
    # (ROADMAP item 1 puts every cross-check into the verdicts)
    "contract.Contraction.residual_checks",
}


def definitions(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every function, method and class,
    nested in function and class bodies too; qualified names start with
    ``module``."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{node.name}"
                out.append((qualname, node.name))
                visit(node.body, qualname)

    visit(tree.body, module)
    return out


def unused_api(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in ``sources`` ({module: source})
    that no source names as a variable or an attribute (dunders aside: Python
    calls them).  An attribute read through a class of ``sources``, ``C.name``,
    names only the ``name`` defined in C; any other attribute or variable
    names every definition so called."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    named, owned = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                owner = node.value
                if isinstance(owner, ast.Name) and owner.id in classes:
                    owned.add(f"{owner.id}.{node.attr}")
                else:
                    named.add(node.attr)
    return [
        qualname
        for module, tree in trees.items()
        for qualname, name in definitions(module, tree)
        if name not in named
        and ".".join(qualname.split(".")[-2:]) not in owned
        and not (name.startswith("__") and name.endswith("__"))
    ]


def _traced_names() -> set[str]:
    """The names the benchmark's tracer wraps, which must keep resolving."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{m}.{attr}" for m, attr in tracer.FUNCTIONS} | {
        f"{m}.{cls}.{attr}" for m, cls, attr, _ in tracer.METHODS
    }


def test_checker_sees_an_unused_function():
    source = (
        "class A:\n"
        "    def run(self):\n"
        "        return helper()\n"
        "    def __len__(self):\n"
        "        return 1\n"
        "def helper():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return A().run()\n"
    )
    assert unused_api({"m": source}) == ["m.orphan"]
    # B.of is read through its class; A.of, which shares the name, is unused
    # until an attribute read through anything but a class names it
    source = (
        "class A:\n"
        "    def of(self):\n"
        "        return 1\n"
        "class B:\n"
        "    def of(self):\n"
        "        return A\n"
        "B.of(None)\n"
    )
    assert unused_api({"m": source}) == ["m.A.of"]
    assert unused_api({"m": source + "B().of()\n"}) == []


def test_no_unused_api():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert set(unused_api(sources)) - _traced_names() - ALLOWED == set()

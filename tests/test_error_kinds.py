import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conekit"

# A usage or precondition error, an internal check that failed, and the JSON
# hook's refusal of a non-JSON object.
RAISED = {"ValueError", "InvariantError", "TypeError"}


def _name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def exception_classes(sources: dict[str, str]) -> list[str]:
    """``module.Class`` for every class in ``sources`` that derives, directly
    or through another class there, from a name ending in Error or
    Exception."""
    classes = {
        node.name: (module, [_name(b) for b in node.bases])
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name, seen=()):
        if name is None or name in seen:
            return False
        if name.endswith(("Error", "Exception")):
            return True
        return name in classes and any(
            is_exception(b, seen + (name,)) for b in classes[name][1]
        )

    return sorted(
        f"{module}.{name}"
        for name, (module, bases) in classes.items()
        if any(is_exception(b) for b in bases)
    )


def foreign_raises(source: str) -> list[str]:
    """``line: name`` of every raise that does not raise one of ``RAISED``
    (a bare re-raise included)."""
    return [
        f"{node.lineno}: {_name(node.exc) if node.exc else 'raise'}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and (node.exc is None or _name(node.exc) not in RAISED)
    ]


def test_checker_sees_exception_classes_and_foreign_raises():
    source = (
        "class Base(ValueError):\n"
        "    pass\n"
        "class Leaf(Base):\n"
        "    pass\n"
        "class Plain:\n"
        "    pass\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise Leaf('x')\n"
        "    try:\n"
        "        raise ValueError('y') from None\n"
        "    except ValueError:\n"
        "        raise\n"
    )
    assert exception_classes({"m": source}) == ["m.Base", "m.Leaf"]
    assert foreign_raises(source) == ["9: Leaf", "13: raise"]


def _sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_one_exception_class():
    sources = _sources()
    assert exception_classes(sources) == ["qlattice.InvariantError"]
    (node,) = [
        n
        for n in ast.walk(ast.parse(sources["qlattice"]))
        if isinstance(n, ast.ClassDef) and n.name == "InvariantError"
    ]
    # not a ValueError, so that no usage-error handler can swallow it
    assert [_name(b) for b in node.bases] == ["Exception"]


def test_every_raise_is_of_one_of_three_kinds():
    assert {
        module: found
        for module, source in _sources().items()
        if (found := foreign_raises(source))
    } == {}

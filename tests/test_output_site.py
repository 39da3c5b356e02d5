import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conekit"


def sites(module: str, source: str) -> tuple[list[str], list[str]]:
    """``module.function`` of every call to ``_write`` and of every place that
    names stdout (``sys.stdout``, a bare ``stdout`` or a ``print`` call), in
    source order; code outside any function is ``module``."""
    writes, stdout = [], []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_write":
                    writes.append(where)
                elif name == "print":
                    stdout.append(where)
            elif (isinstance(child, ast.Attribute) and child.attr == "stdout") or (
                isinstance(child, ast.Name) and child.id == "stdout"
            ):
                stdout.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return writes, stdout


def test_checker_sees_writes_and_stdout():
    source = (
        "import sys\n"
        "def _write(text):\n"
        "    sys.stdout.write(text)\n"
        "def cmd_a():\n"
        "    _write('a')\n"
        "    print('b')\n"
        "class C:\n"
        "    def run(self):\n"
        "        m._write(stdout)\n"
        "def main():\n"
        "    _write(cmd_a())\n"
    )
    assert sites("m", source) == (
        ["m.cmd_a", "m.C.run", "m.main"],
        ["m._write", "m.cmd_a", "m.C.run"],
    )


def test_main_is_the_one_output_site():
    # every command returns its payload and main writes it, so no command can
    # print before its checks have finished
    writes, stdout = [], []
    for path in sorted(SRC.glob("*.py")):
        w, s = sites(path.stem, path.read_text(encoding="utf-8"))
        writes += w
        stdout += s
    assert writes == ["cli.main"]
    # run, the process entry point, names stdout only to flush it once main
    # has returned
    assert set(stdout) == {"cli._write", "cli.run"}


def test_run_only_flushes_stdout():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    (run,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run"]
    flushed = [
        node.func.value
        for node in ast.walk(run)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "flush"
    ]
    named = [n for n in ast.walk(run) if isinstance(n, ast.Attribute) and n.attr == "stdout"]
    assert named and all(any(n is f for f in flushed) for n in named)

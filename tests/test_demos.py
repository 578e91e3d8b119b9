"""The demos and the README quickstart import only names qspde still has,
and qspde.__all__ lists exactly the names the package exports.

Running the four demos takes tens of seconds, so these tests only parse
them: every `from qspde... import name` must resolve to an attribute of
the imported module.  A demo that still imports a deleted name fails
here in milliseconds.
"""

import ast
import importlib
import pathlib
import re
import types

import pytest

import qspde

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _qspde_imports(source: str, filename: str):
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "qspde":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qspde":
                    yield alias.name, None


def _check(source: str, filename: str):
    imports = list(_qspde_imports(source, filename))
    assert imports, f"{filename} imports nothing from qspde"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{filename}: {module} has no {name}"


def test_demos_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    _check(path.read_text(), path.name)


def test_readme_quickstart_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    _check("\n".join(blocks), "README.md")


def test_all_is_exactly_the_public_attributes():
    # a fold that leaves a stale export, or an import that is never exported
    public = {
        name
        for name, value in vars(qspde).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(qspde.__all__) == len(set(qspde.__all__))
    assert set(qspde.__all__) == public

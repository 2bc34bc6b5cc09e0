"""README's library example runs as written, and names only what the
package exports."""

import ast
import importlib
import re
from pathlib import Path

import tableqa

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    """The ```python blocks of README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_first_block_runs_on_the_fixtures(monkeypatch):
    monkeypatch.chdir(README.parent)
    namespace = {}
    exec(compile(library_blocks()[0], str(README), "exec"), namespace)
    table = namespace["tables"]["state-capitals"]
    assert {table.rows[r][c] for r, c in namespace["cells"]} == {"Baton Rouge"}


def test_top_level_import_is_the_package_exports():
    # "the package's top level exports the names imported below, plus Table"
    (node,) = [n for n in ast.parse(library_blocks()[0]).body
               if isinstance(n, ast.ImportFrom) and n.module == "tableqa"]
    names = {alias.name for alias in node.names}
    assert names | {"Table", "__version__"} == set(tableqa.__all__)


def test_every_imported_name_exists():
    for block in library_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (node.module, alias.name)

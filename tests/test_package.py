import ast
from pathlib import Path

import gmanvol


def _imported_public_names() -> list[str]:
    tree = ast.parse(Path(gmanvol.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


class TestExports:
    def test_every_entry_resolves(self):
        missing = [name for name in gmanvol.__all__ if not hasattr(gmanvol, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(gmanvol.__all__) == len(set(gmanvol.__all__))

    def test_all_matches_imports(self):
        assert sorted(gmanvol.__all__) == sorted(_imported_public_names())

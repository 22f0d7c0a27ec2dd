"""numpy is a requirement: declared once, imported plainly, missed loudly.

A guarded ``try: import numpy`` is how a second, silently different
program grows back beside the one every golden and benchmark measures,
so the places that decide it are pinned here: the imports under
``src/repro``, the ``setup.py`` metadata and its version floor, and what
``import repro`` does on an interpreter that cannot import numpy.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return False


def test_no_module_guards_its_numpy_import():
    importers, guarded = [], []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(imports_numpy(node) for node in ast.walk(tree)):
            importers.append(path)
        for block in ast.walk(tree):
            if isinstance(block, ast.Try) and any(
                imports_numpy(node) for node in ast.walk(block)
            ):
                guarded.append(f"{path.relative_to(ROOT)}:{block.lineno}")
    assert importers, "the scan found no numpy import at all"
    assert not guarded, f"numpy imported inside a try: {guarded}"


def test_setup_declares_numpy_as_a_requirement():
    tree = ast.parse((ROOT / "setup.py").read_text())
    (call,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "setup"
    ]
    keywords = {keyword.arg: keyword.value for keyword in call.keywords}
    assert "numpy>=2.0" in ast.literal_eval(keywords["install_requires"])
    assert "extras_require" not in keywords


def test_src_has_no_numpy_version_fork():
    """The floor is the only numpy version the code knows: no
    ``hasattr(numpy, ...)`` probe keeps a fallback for an older one."""
    forks = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "hasattr"
                and getattr(node.args[0], "id", "") in ("np", "_np", "numpy")
            ):
                forks.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not forks, f"numpy version probes: {forks}"


def test_import_without_numpy_fails_naming_it(tmp_path):
    """An interpreter whose first ``numpy`` on ``sys.path`` cannot be
    imported stands in for one that has none."""
    (tmp_path / "numpy.py").write_text(
        "raise ImportError(\"No module named 'numpy'\", name='numpy')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)]))
    result = subprocess.run(
        [sys.executable, "-c", "import repro"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    assert "ImportError" in result.stderr and "numpy" in result.stderr

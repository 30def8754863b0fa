"""The public surface: every name in the package's and each module's __all__
is documented in README.md or read by the command-line front end, by verify
or by the benchmark."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holonomy_lab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
READERS = [PACKAGE / "cli.py", PACKAGE / "verify.py", *sorted((ROOT / "bench").glob("*.py"))]


def readme_names() -> set[str]:
    """The identifiers inside README's inline code spans."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return {name for span in re.findall(r"`([^`]+)`", text) for name in re.findall(r"[A-Za-z_]\w*", span)}


def names_read(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs a file reads of the package: names it imports,
    attributes of the package modules it imports, the names a package module
    uses of its own, and "module.name" strings (bench/tracing.py keys its
    metrics by them)."""
    tree = ast.parse(path.read_text())
    own = f"holonomy_lab.{path.stem}" if path.parent == PACKAGE else None
    modules = {"holonomy_lab": "holonomy_lab"}  # local name -> package module
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "holonomy_lab" + (f".{base}" if base else "")
            if base.split(".")[0] != "holonomy_lab":
                continue
            for alias in node.names:
                if base == "holonomy_lab" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = f"holonomy_lab.{alias.name}"
                else:
                    read.add((base, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            read.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and own is not None:
            read.add((own, node.id))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = re.fullmatch(r"(\w+)\.(\w+)(\.\w+)*", node.value)
            if match and match[1] in MODULES:
                read.add((f"holonomy_lab.{match[1]}", match[2]))
    return read


def test_every_public_name_is_documented_or_read():
    documented = readme_names()
    read = set().union(*(names_read(path) for path in READERS))
    # the scan sees the reads it must see
    assert {("holonomy_lab.hilbert", "inner"), ("holonomy_lab.phases", "adiabatic_berry_phase"),
            ("holonomy_lab.sweep", "run_sweep"), ("holonomy_lab.verify", "CheckResult")} <= read
    unused = []
    for module_name in ["holonomy_lab"] + [f"holonomy_lab.{m}" for m in MODULES]:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            # a re-exported function or class is read where it is defined, too
            home = getattr(getattr(module, name), "__module__", module_name)
            if name not in documented and (module_name, name) not in read and (home, name) not in read:
                unused.append(f"{module_name}.{name}")
    assert not unused, f"neither in README nor read: {unused}"

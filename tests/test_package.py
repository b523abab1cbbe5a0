"""The package root's public surface."""

import re
from pathlib import Path

import monideal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = [
    "BudgetError", "ComponentSet", "FormatError", "GeneratorSet", "INF",
    "OpCounter", "artinianize", "components_generate",
    "decompose_incremental", "decompose_oracle", "decompose_recursive",
    "emit_components", "emit_ideal", "gen_random", "parse_components",
    "parse_ideal",
]


def test_all_is_pinned():
    assert sorted(monideal.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(monideal, name) is not None


def test_names_the_benchmark_reads_resolve():
    # perfbench reads the package root as ``lib.<name>`` (the imported
    # ``monideal``) and through ``from monideal import ...``
    names = set()
    for path in PERFBENCH.glob("*.py"):
        text = path.read_text()
        names.update(re.findall(r"(?<![\w.])lib\.(\w+)", text))
        for group in re.findall(r"from monideal import (\([^)]*\)|[\w, ]+)", text):
            names.update(re.findall(r"\w+", group))
    assert {"OpCounter", "decompose_incremental", "gen_random"} <= names
    assert names <= set(PUBLIC), names - set(PUBLIC)

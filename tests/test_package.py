"""The package root's public surface."""

import re
import sys
from pathlib import Path

import monideal
import monideal.cli  # noqa: F401  (the tracer rebinds names in every module)
from monideal.incremental import IncrementalState
from conftest import showcase

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


def test_benchmark_trace_adapters_fit_the_engine():
    # perfbench's tracer wraps engine functions with adapters that assume
    # their signatures and return shapes; drift would surface only in a
    # traced benchmark run
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = layers.Tracer(monideal)
    sizes = []
    with layers.installed(tracer):
        monideal.decompose_incremental(showcase(), t_sizes=sizes)
    assert tracer.calls["incremental.partition_components"] == len(sizes) - 1 > 0
    # the showcase has three variables, so each step's partition reads only
    # the staircase run: the active components above alpha in x_0 and x_1,
    # 1 + 1 + 2 of the 1 + 2 + 3 active ones
    art = monideal.artinianize(showcase())
    state = IncrementalState.start(art)
    runs = []
    for alpha in art.alphas():
        runs.append(sum(b[0] > alpha[0] and b[1] > alpha[1] for b in state.active))
        state.add_generator(alpha)
    assert tracer.counts["partition.scanned"] == sum(runs) == 4

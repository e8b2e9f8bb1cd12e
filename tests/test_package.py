import re
from pathlib import Path

import ssgpfa
from ssgpfa import data, errors, explain, kalman, kernels, metrics, model

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_each_module_all():
    modules = (errors, kernels, kalman, model, explain, metrics, data)
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert ssgpfa.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(ssgpfa, name), name


def test_benchmark_names_exported():
    # the benchmark calls library functions as ss.<name> on the package
    used = {name for path in (ROOT / "perfbench").glob("*.py")
            for name in re.findall(r"\bss\.([A-Za-z_]\w*)", path.read_text())}
    assert used
    assert used <= set(ssgpfa.__all__)

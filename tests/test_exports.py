"""Every exported name resolves, so a deletion cannot leave a stale export,
and each submodule exports only the names it defines; ``validate`` loads
neither numpy nor scipy, the sampler no scipy, and the run path only the
scipy subpackages it uses."""

import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

MODULES = [
    "heavyspec",
    "heavyspec._config",
    "heavyspec.cli",
    "heavyspec.experiment",
    "heavyspec.limit_law",
    "heavyspec.linear_filter",
    "heavyspec.rv_noise",
    "heavyspec.spectral",
]
SUBMODULES = [name for name in MODULES if name != "heavyspec"]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_only_what_it_defines(name):
    # One home per name: the package gathers names from its submodules, and
    # no submodule passes on another's. A class or function names its home
    # in __module__; a constant must sit in no other submodule's __all__.
    module = importlib.import_module(name)
    elsewhere = {attr for other in SUBMODULES if other != name for attr in importlib.import_module(other).__all__}
    foreign = []
    for attr in module.__all__:
        value = getattr(module, attr)
        if inspect.isclass(value) or inspect.isroutine(value):
            if value.__module__ != name:
                foreign.append(f"{attr} from {value.__module__}")
        elif attr in elsewhere:
            foreign.append(f"{attr} also exported elsewhere")
    assert foreign == []


def test_readme_library_import_resolves():
    # The import statement of the README's first Python block, as written.
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    statement = re.search(r"^from heavyspec import \(.*?\)$", block, re.M | re.S).group(0)
    namespace = {}
    exec(statement, namespace)
    assert "envelope_check" in namespace


def _loaded_after(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=ROOT)
    return out.stdout.splitlines()[-1].split()


def test_validate_loads_neither_numpy_nor_scipy():
    code = "from heavyspec.cli import main\nassert main(['validate', '--config', 'config.example.json']) == 0"
    loaded = _loaded_after(code)
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []


def test_sampler_loads_no_scipy():
    loaded = _loaded_after("import heavyspec.rv_noise")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_experiment_import_loads_the_solver():
    # A run parent loads ARPACK before its pool forks, so workers inherit it.
    assert "scipy.sparse.linalg" in _loaded_after("import heavyspec.experiment")


def test_cli_import_leaves_out_stats_integrate_and_optimize():
    # The package imports only scipy.special (for kolmogi) and
    # scipy.sparse.linalg, which loads scipy.linalg itself; scipy.stats alone
    # would pull in integrate and optimize and add about a second to every
    # start of run, check and report, which load experiment.
    loaded = _loaded_after("import heavyspec.cli, heavyspec.experiment")
    heavy = (["scipy", "stats"], ["scipy", "integrate"], ["scipy", "optimize"])
    assert [m for m in loaded if m.split(".")[:2] in heavy] == []

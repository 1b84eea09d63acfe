"""Every exported name resolves, so a deletion cannot leave a stale export,
and importing the CLI loads only the scipy subpackages the run path uses."""

import importlib
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_cli_import_leaves_out_stats_integrate_and_optimize():
    # The package needs only scipy.special, scipy.linalg and scipy.sparse.linalg;
    # scipy.stats alone would pull in integrate and optimize and add about a
    # second to every CLI start.
    code = (
        "import sys\n"
        "import heavyspec.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'], ['scipy', 'optimize'])))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

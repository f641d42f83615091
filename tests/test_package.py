"""The package's public name list and import cost."""

import os
import subprocess
import sys

import phenotopics


def test_all_is_sorted_and_unique():
    assert phenotopics.__all__ == sorted(set(phenotopics.__all__))


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from phenotopics import *", namespace)
    assert set(phenotopics.__all__) <= set(namespace)


def test_cli_import_leaves_out_scipy_optimize():
    # only eval's phenotype matching needs it, and it costs every command ~0.1 s
    src = os.path.dirname(os.path.dirname(phenotopics.__file__))
    child = (
        f"import sys; sys.path.insert(0, {src!r}); import phenotopics.cli; "
        "sys.exit('scipy.optimize' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", child], timeout=60).returncode == 0

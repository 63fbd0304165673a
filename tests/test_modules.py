import importlib
import json
import os
import subprocess
import sys

import pytest

import kinlab


@pytest.mark.parametrize("module", ["gridfn", "geometry", "kernel", "covering",
                                    "solvers", "degiorgi"])
def test_star_import_binds_every_public_name(module):
    # a name left in __all__ after its definition is gone fails the import
    namespace = {}
    exec(f"from kinlab.{module} import *", namespace)
    public = importlib.import_module(f"kinlab.{module}").__all__
    assert len(set(public)) == len(public)
    assert set(public) <= set(namespace)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(kinlab.__file__)))


def _fresh_interpreter(code, tmp_path):
    """The last line of what `code` prints, run by a new interpreter that
    imports this kinlab."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


_LOADED = "print(*(m in sys.modules for m in ('scipy.ndimage', 'scipy.special')))"


def test_cli_import_loads_no_scipy_ndimage_or_special(tmp_path):
    # scipy.ndimage alone loaded 77 SciPy modules, scipy.special among them,
    # before any command ran
    assert _fresh_interpreter(f"import sys, kinlab.cli\n{_LOADED}",
                              tmp_path) == ["False", "False"]


def test_lab_commands_load_no_scipy_ndimage_or_special(tmp_path):
    # the boundary layer of the ink spots is numpy at run time too, and
    # scipy.special is left to verify-kernel's tail bound
    configs = {
        "covering": {"seed": 0, "families": 5, "maximal_fields": 1, "n": 12,
                     "ink_spots": 1},
        "verify-geometry": {"seed": 0, "samples": 40},
        "holder-scan": {"seed": 0, "n": 32, "instances": 1},
        "harnack": {"seed": 0, "instances": 1},
    }
    runs = []
    for command, cfg in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(cfg))
        runs.append(f"assert main([{command!r}, '--config', '{command}.json', "
                    f"'--out', '{command}']) == 0")
    code = "\n".join(["import sys", "from kinlab.cli import main", *runs, _LOADED])
    assert _fresh_interpreter(code, tmp_path) == ["False", "False"]

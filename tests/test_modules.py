import importlib

import pytest


@pytest.mark.parametrize("module", ["gridfn", "geometry", "kernel", "covering",
                                    "solvers", "degiorgi"])
def test_star_import_binds_every_public_name(module):
    # a name left in __all__ after its definition is gone fails the import
    namespace = {}
    exec(f"from kinlab.{module} import *", namespace)
    public = importlib.import_module(f"kinlab.{module}").__all__
    assert len(set(public)) == len(public)
    assert set(public) <= set(namespace)

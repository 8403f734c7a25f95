"""Every name a taylorlab module exports in ``__all__`` resolves."""

import importlib

import pytest

from conftest import MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"taylorlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

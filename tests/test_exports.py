"""Every name that a ``ttsupport`` module lists in ``__all__`` is defined
there, so that a deleted function cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import ttsupport

# importing __main__ would run the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(ttsupport.__path__) if m.name != "__main__")


def test_the_library_modules_have_export_lists():
    modules = {name: importlib.import_module(f"ttsupport.{name}") for name in MODULES}
    exporting = [name for name, module in modules.items() if hasattr(module, "__all__")]
    assert exporting == ["balmer", "homalg", "modcalc", "randgen", "supportdata", "znum"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"ttsupport.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

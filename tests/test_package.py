import importlib

import pytest

import spherecone

MODULES = ["lds", "specfun", "spheremap", "wce", "finance"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spherecone.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_public_in_their_modules():
    # every public name the package re-exports from those modules is in
    # its defining module's __all__
    homes = {f"spherecone.{name}" for name in MODULES}
    stray = []
    for name, obj in vars(spherecone).items():
        home = getattr(obj, "__module__", None)
        if name.startswith("_") or home not in homes:
            continue
        if name not in importlib.import_module(home).__all__:
            stray.append(f"{home}.{name}")
    assert stray == []

"""The package namespace: each module's __all__ is its one list of public
names, and `from partition_diamonds import ...` reaches every one of them."""

import importlib
import types

import partition_diamonds

MODULES = ("series", "polynomials", "oracle", "genfun", "omega",
           "congruences")


def test_package_namespace_is_the_union_of_the_module_lists():
    listed = {}
    for name in MODULES:
        module = importlib.import_module(f"partition_diamonds.{name}")
        assert len(set(module.__all__)) == len(module.__all__), name
        for public in module.__all__:
            assert public not in listed, (public, listed.get(public), name)
            listed[public] = module
            assert getattr(partition_diamonds, public) is \
                getattr(module, public), (name, public)
    exported = {
        public for public, value in vars(partition_diamonds).items()
        if not public.startswith("_")
        and not isinstance(value, types.ModuleType)
    }
    assert exported == set(listed)

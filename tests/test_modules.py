"""Module-level invariants that hold across the whole package."""

import importlib
import pkgutil

import invlab


def test_no_module_global_caches():
    # a shared cache makes a solver's cost depend on what ran before it;
    # memos live in the call that fills them
    found = []
    for info in pkgutil.iter_modules(invlab.__path__):
        module = importlib.import_module(f"invlab.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") or hasattr(value, "cache_clear"):
                found.append(f"{info.name}.{name}")
    assert found == []

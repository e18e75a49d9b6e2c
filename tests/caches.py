"""The `functools` caches of the package, found by walking its modules,
so that a cache added to any module is found without naming it here."""

import contextlib
import importlib
import pkgutil

import fusioncalc

MODULES = [importlib.import_module(f"fusioncalc.{info.name}")
           for info in pkgutil.iter_modules(fusioncalc.__path__)
           if info.name != "__main__"]


def package_caches(*modules) -> list:
    """Each cache bound at the top level of `modules` (by default every
    module of the package), once."""
    return list(dict.fromkeys(
        value for module in modules or MODULES
        for value in vars(module).values() if hasattr(value, "cache_clear")))


def clear_caches(*modules) -> None:
    """Empty every cache of `modules` (by default of the package), so
    that what follows runs as in a fresh process."""
    for cache in package_caches(*modules):
        cache.cache_clear()


@contextlib.contextmanager
def fresh_caches(*modules):
    """A context in which the caches of `modules` (by default of the
    package) start empty, and what it cached is dropped on exit."""
    clear_caches(*modules)
    try:
        yield
    finally:
        clear_caches(*modules)


def cached(fn, *args):
    """fn(*args), asserting that the call is a hit of fn's cache."""
    hits = fn.cache_info().hits
    out = fn(*args)
    assert fn.cache_info().hits == hits + 1, (fn, args)
    return out

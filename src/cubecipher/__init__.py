"""cubecipher: an exact-arithmetic educational block cipher built from a
cubic trapdoor encoding and a Fibonacci / rotation / key-matrix mixing
chain, together with the analysis tools that demonstrate its limits.

WARNING: the per-block layer is linear, so known plaintext recovers the
composite transform (see analysis.known_plaintext_attack). This package is
for study and experimentation, never for protecting real data.

Each module's __all__ is the one list of its public names; this package
re-exports them all, so a name becomes public by entering its module's list.
Names resolve on first use (PEP 562), so `import cubecipher` loads no
submodule: a public name loads the modules up to its owner, in the order
below, and a submodule name (`cli`, `analysis`, ...) loads just that
submodule. __all__ and dir() are read from the modules' lists on first ask,
and each resolved value is cached here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the library modules in import order: each imports only modules before it
_MODULES = ("errors", "matrices", "primes", "encoding", "cipher", "formats", "analysis")
_SUBMODULES = frozenset(_MODULES + ("cli",))


def _resolve(name):
    if name in _SUBMODULES:
        return _import_module("." + name, __name__)
    modules = (_import_module("." + module, __name__) for module in _MODULES)
    if name == "__all__":
        return sorted(public for module in modules for public in module.__all__)
    if not name.startswith("_"):  # no public name does, so no search for one
        for module in modules:
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __getattr__(name):
    # setdefault: threads that race on a first use all get the value cached first
    return globals().setdefault(name, _resolve(name))


def __dir__():
    return sorted(set(globals()).union(__getattr__("__all__"), _SUBMODULES))

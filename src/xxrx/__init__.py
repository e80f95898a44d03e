"""Binary words avoiding x x^R x: recognition, factorization, enumeration.

The package provides the direct pattern scan, the block-profile
factorization with its linear-time recognizer, the valley test for
positive sequences and their partition-pair encoding, exact and
asymptotic count tables, brute-force oracles, and the quadruple-family
predicate, plus a CLI (``xxrx``) wiring it all together.

The package re-exports the ``__all__`` of each of its six public
modules, so a public name is listed once, in its own module.  Only
``__version__`` is bound at import, so ``import xxrx.cli`` loads no
library module.  The first other name asked of the package (PEP 562
``__getattr__``: ``xxrx.profile``, ``from xxrx import *``,
``xxrx.words``, ``dir(xxrx)``) imports the six modules, binds their
public names and ``BACKEND``, and builds ``__all__``.  The kernels
(pattern scan, profile extraction, membership) are pure Python, in one
module, ``_scan_py``, which ``words`` and ``factorization`` call
directly; ``BACKEND`` names it.
"""

__version__ = "0.1.0"

_MODULES = ("bruteforce", "counting", "factorization", "intersect", "sequences", "words")


def __getattr__(name):
    namespace = globals()
    if "__all__" not in namespace:
        from importlib import import_module

        from ._scan_py import BACKEND

        public = ["BACKEND"]
        for short in _MODULES:
            module = import_module(f".{short}", __name__)
            public += module.__all__
            namespace.update((n, getattr(module, n)) for n in module.__all__)
        namespace["BACKEND"] = BACKEND
        namespace["__all__"] = [*public, "__version__"]
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})

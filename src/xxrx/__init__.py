"""Binary words avoiding x x^R x: recognition, factorization, enumeration.

The package provides the direct pattern scan, the block-profile
factorization with its linear-time recognizer, classification of
valley-free sequences and their partition-pair encoding, exact and
asymptotic count tables, brute-force oracles, and the quadruple-family
predicate, plus a CLI (``xxrx``) wiring it all together.

The package re-exports the ``__all__`` of each of its seven public
modules, so a public name is listed once, in its own module.  The
kernels (pattern scan, profile extraction, membership) are pure Python,
in one module; ``BACKEND`` names it.
"""

__version__ = "0.1.0"

from . import bruteforce, counting, factorization, intersect, oeis, sequences, words
from ._backend import BACKEND, available_backends
from .bruteforce import *  # noqa: F403
from .counting import *  # noqa: F403
from .factorization import *  # noqa: F403
from .intersect import *  # noqa: F403
from .oeis import *  # noqa: F403
from .sequences import *  # noqa: F403
from .words import *  # noqa: F403

__all__ = [
    "BACKEND",
    "available_backends",
    *bruteforce.__all__,
    *counting.__all__,
    *factorization.__all__,
    *intersect.__all__,
    *oeis.__all__,
    *sequences.__all__,
    *words.__all__,
    "__version__",
]

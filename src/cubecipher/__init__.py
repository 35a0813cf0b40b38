"""cubecipher: an exact-arithmetic educational block cipher built from a
cubic trapdoor encoding and a Fibonacci / rotation / key-matrix mixing
chain, together with the analysis tools that demonstrate its limits.

WARNING: the per-block layer is linear, so known plaintext recovers the
composite transform (see analysis.known_plaintext_attack). This package is
for study and experimentation, never for protecting real data.

Each module's __all__ is the one list of its public names; this package
re-exports them all, so a name becomes public by entering its module's list.
"""

from . import analysis, cipher, encoding, errors, formats, matrices, primes
from .analysis import *  # noqa: F401,F403
from .cipher import *  # noqa: F401,F403
from .encoding import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .formats import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .primes import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (analysis, cipher, encoding, errors, formats, matrices, primes)
    for name in module.__all__
)

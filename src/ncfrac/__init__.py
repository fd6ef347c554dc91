"""N-continued fractions and the generalized interval map x -> {N/x}.

Exact integer/rational dynamics, closed-form ergodic constants, and three
independent verification routes: exact big-integer identities, Monte Carlo
orbit averages, and a grid discretization of the transfer operator.

Importing the package loads no numpy.  The exact work (digit expansions,
convergents and the bounds certificate, so ``ncfrac expand`` and ``ncfrac
verify bounds``) never loads it; the constants series, the Monte Carlo
sampler and the Ulam grid read numpy's names off ``ncfrac._np``, the one
module that imports it, when the first name is read.
"""

__version__ = "0.1.0"

from . import constants, convergents, dynamics, ergodic, ulam
from .constants import *  # noqa: F401,F403
from .convergents import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .ergodic import *  # noqa: F401,F403
from .ulam import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *(name for module in (dynamics, convergents, constants, ergodic, ulam) for name in module.__all__),
]

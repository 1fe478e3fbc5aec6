"""eigenkit: dense complex-matrix eigenvalues by shifted QR iteration.

The enhanced driver combines a Wilkinson shift, a per-iteration deflation
sweep, and a powers-of-two balancing pre-pass; baseline drivers (plain,
Rayleigh-shifted, Wilkinson-without-deflation) exist for comparison. An
independent characteristic-polynomial oracle cross-checks results for
n <= 12, and a benchmark harness turns seeded random ensembles into trace
CSVs and SVG convergence plots.

Each submodule's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from .core import *
from .qr import *
from .shifts import *
from .engine import *
from .oracle import *
from .ensemble import *
from .matio import *
from .bench import *
from .svgplot import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__, *qr.__all__, *shifts.__all__, *engine.__all__, *oracle.__all__,
    *ensemble.__all__, *matio.__all__, *bench.__all__, *svgplot.__all__,
]

"""Numerics for lattice alloy models: random fields built by convolving
i.i.d. couplings through a single-site profile, the finite-volume operators
they define, and seeded Monte Carlo estimators for their spectral statistics.

Each submodule's ``__all__`` is its list of public names; the package
exports their union.  The experiment runner (``alloysim.experiments``) and
the command line (``alloysim.cli``) are imported on their own.
"""

from . import errors, estimators, field, ids, lattice, measures, model, moments, potential
from . import regularity, results, rng
from .errors import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .field import *  # noqa: F401,F403
from .ids import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .potential import *  # noqa: F401,F403
from .regularity import *  # noqa: F401,F403
from .results import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        errors, estimators, field, ids, lattice, measures, model, moments, potential,
        regularity, results, rng,
    )
    for name in module.__all__
] + ["__version__"]

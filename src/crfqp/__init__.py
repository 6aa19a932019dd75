"""crfqp: MAP labeling on pairwise graphs via a simplex-constrained
quadratic relaxation, with hard label-consistency constraints handled
by null-space reduction.

Public surface: graph/potential containers and the objective (core),
feature-based potential construction (potentials), constraint sets and
reduction (reduction), the multiplicative-update solver (solver),
reference decoders (baselines), point-cloud constraint extraction
(cloud), metrics, planted scenes (synthetic), the evaluation harness
(evaluate), the runtime benchmark (bench), and problem-file I/O
(problem_io).  Each module's ``__all__`` declares its public names;
other names stay importable from their module but are not promised.
"""

from . import baselines, bench, cloud, core, evaluate, metrics, potentials
from . import problem_io, reduction, solver, synthetic
from .baselines import *  # noqa: F403
from .bench import *  # noqa: F403
from .cloud import *  # noqa: F403
from .core import *  # noqa: F403
from .evaluate import *  # noqa: F403
from .metrics import *  # noqa: F403
from .potentials import *  # noqa: F403
from .problem_io import *  # noqa: F403
from .reduction import *  # noqa: F403
from .solver import *  # noqa: F403
from .synthetic import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *baselines.__all__,
    *bench.__all__,
    *cloud.__all__,
    *core.__all__,
    *evaluate.__all__,
    *metrics.__all__,
    *potentials.__all__,
    *problem_io.__all__,
    *reduction.__all__,
    *solver.__all__,
    *synthetic.__all__,
]

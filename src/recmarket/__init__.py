"""recmarket: a deterministic recommender-marketplace simulator.

Consumers choose among competing recommendation algorithms; the package
measures how profile-portability policies shape utility outcomes for niche
and generic consumers and providers.
"""

from .dataset import SyntheticSpec, generate_synthetic
from .engine import run_experiment_suite, standard_suite

__version__ = "0.1.0"

__all__ = ["SyntheticSpec", "generate_synthetic", "run_experiment_suite", "standard_suite"]

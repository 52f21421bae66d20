"""recmarket: a deterministic recommender-marketplace simulator.

Consumers choose among competing recommendation algorithms; the package
measures how profile-portability policies shape utility outcomes for niche
and generic consumers and providers.
"""

from .behavior import BehaviorParams, ConsumerState
from .dataset import (
    Catalog,
    ConsumerProfileSeed,
    InteractionLog,
    ItemRecord,
    ProviderRecord,
    SyntheticSpec,
    build_preferences,
    classify_providers,
    generate_synthetic,
    load_catalog,
    load_ratings,
)
from .engine import (
    MetricsReport,
    ScenarioConfig,
    SwitchTiming,
    default_recommenders,
    run_experiment_suite,
    run_scenario,
    standard_suite,
)
from .errors import ConfigError, DataError, RecmarketError, TrainingError
from .portability import (
    AuditTrail,
    PortabilityPolicy,
    ProfileStore,
    on_switch,
    record_click,
    replay_audit,
    training_view,
)
from .recommender import (
    CatalogModel,
    Provenance,
    RecommenderConfig,
    TrainedModel,
    popular_list,
    serve,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AuditTrail",
    "BehaviorParams",
    "Catalog",
    "CatalogModel",
    "ConfigError",
    "ConsumerProfileSeed",
    "ConsumerState",
    "DataError",
    "InteractionLog",
    "ItemRecord",
    "MetricsReport",
    "PortabilityPolicy",
    "ProfileStore",
    "Provenance",
    "ProviderRecord",
    "RecmarketError",
    "RecommenderConfig",
    "ScenarioConfig",
    "SwitchTiming",
    "SyntheticSpec",
    "TrainedModel",
    "TrainingError",
    "build_preferences",
    "classify_providers",
    "default_recommenders",
    "generate_synthetic",
    "load_catalog",
    "load_ratings",
    "on_switch",
    "popular_list",
    "record_click",
    "replay_audit",
    "run_experiment_suite",
    "run_scenario",
    "serve",
    "standard_suite",
    "train",
    "training_view",
]

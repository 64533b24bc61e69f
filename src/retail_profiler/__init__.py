"""Target-fit KPIs and acquisition-strategy simulation for monthly demand profiles."""

__version__ = "0.1.0"

from retail_profiler.model import (
    CustomerDataset,
    DataError,
    TargetProfile,
    load_customers,
    normalize_profile,
    save_customers,
)
from retail_profiler.targets import (
    AggregateDemand,
    SolarTable,
    complement_target,
    constant_resolver,
    custom_target,
    default_solar_target,
    flat_target,
    solar_resolver,
    solar_target,
)
from retail_profiler.metrics import (
    eid,
    global_distance,
    median_distance,
    profile_distance,
    reduction,
)
from retail_profiler.pairing import (
    PairTable,
    aggregate_matrix,
    attach_kpis,
    build_pairs,
    identification_stats,
)
from retail_profiler.simulate import (
    accumulate_curve,
    baseline_band,
    greedy_sequence,
    power_sequence,
    random_sequence,
    reduction_curve,
)
from retail_profiler.synth import PairKey, SynthConfig, generate

__all__ = [
    "__version__",
    "AggregateDemand",
    "CustomerDataset",
    "DataError",
    "PairKey",
    "PairTable",
    "SolarTable",
    "SynthConfig",
    "TargetProfile",
    "accumulate_curve",
    "aggregate_matrix",
    "attach_kpis",
    "baseline_band",
    "build_pairs",
    "complement_target",
    "constant_resolver",
    "custom_target",
    "default_solar_target",
    "eid",
    "flat_target",
    "generate",
    "global_distance",
    "greedy_sequence",
    "identification_stats",
    "load_customers",
    "median_distance",
    "normalize_profile",
    "power_sequence",
    "profile_distance",
    "random_sequence",
    "reduction",
    "reduction_curve",
    "save_customers",
    "solar_resolver",
    "solar_target",
]

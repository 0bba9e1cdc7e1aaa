"""crowdkit: configuration-driven agent-based simulations on networks.

Define a population (network structure, node types, parameters, transition
rules) in YAML, attach lifecycle hooks for custom behavior, and run single
simulations, batches, or one-factor-at-a-time sweeps with deterministic
seeding, automatic data collection, periodic snapshots, and result merging.
"""

__version__ = "0.1.0"

from .collect import (
    SeriesRecorder,
    list_snapshots,
    merge_batches,
    merge_labeled,
    merge_parent_directory,
    merge_simulations,
    read_collector,
    read_snapshot,
    read_summary,
    write_gexf,
    write_snapshot,
)
from .config import (
    ProjectConfig,
    build_graph,
    build_rules,
    expand_sweep,
    initialize_population,
    load_config,
    parse_config,
    serialize_config,
    validate,
)
from .engine import (
    Hook,
    HookRegistry,
    Project,
    SimContext,
    SimResult,
    batch_run,
    derive_seed,
    simulate,
    sweep_run,
)
from .errors import (
    CollectError,
    ConfigError,
    CrowdkitError,
    EdgeListError,
    GexfError,
    GraphError,
    HookError,
    MetricError,
)
from .gexf import load_gexf
from .graph import (
    AttributeColumn,
    AttributeTable,
    Graph,
    NodeStates,
    generate_barabasi_albert,
    generate_erdos_renyi,
    generate_random_regular,
    load_edge_list,
    write_edge_list,
)
from .metrics import METRICS, centrality, top_k_by_metric
from .rules import (
    Compartment,
    CountDown,
    CountdownLedger,
    NodeCategorical,
    NodeStochastic,
    Rule,
    apply_rules,
)
from .scenarios import SCENARIOS, Scenario, fixture_path

__all__ = [
    "__version__",
    "AttributeColumn",
    "AttributeTable",
    "CollectError",
    "Compartment",
    "ConfigError",
    "CountDown",
    "CountdownLedger",
    "CrowdkitError",
    "EdgeListError",
    "GexfError",
    "Graph",
    "GraphError",
    "Hook",
    "HookError",
    "HookRegistry",
    "METRICS",
    "MetricError",
    "NodeCategorical",
    "NodeStates",
    "NodeStochastic",
    "Project",
    "ProjectConfig",
    "Rule",
    "SCENARIOS",
    "Scenario",
    "SeriesRecorder",
    "SimContext",
    "SimResult",
    "apply_rules",
    "batch_run",
    "build_graph",
    "build_rules",
    "centrality",
    "derive_seed",
    "expand_sweep",
    "fixture_path",
    "generate_barabasi_albert",
    "generate_erdos_renyi",
    "generate_random_regular",
    "initialize_population",
    "load_config",
    "load_edge_list",
    "load_gexf",
    "merge_batches",
    "merge_labeled",
    "merge_parent_directory",
    "merge_simulations",
    "parse_config",
    "list_snapshots",
    "read_collector",
    "read_snapshot",
    "read_summary",
    "serialize_config",
    "simulate",
    "sweep_run",
    "top_k_by_metric",
    "validate",
    "write_edge_list",
    "write_gexf",
    "write_snapshot",
]

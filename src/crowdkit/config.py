"""Configuration documents: parsing, validation, sweep expansion, population init.

The YAML schema (see config-reference.md at the repository root):

* ``name`` — simulation name.
* ``structure`` — either ``random`` (generator ``type`` plus ``count`` and the
  generator's parameter) or ``file`` (``path`` + ``format``).
* ``definitions.pd-model`` — ``name`` (``diffusion`` or ``custom``),
  ``nodetypes``, ``node-parameters``, ``edge-parameters``, ``compartments``,
  ``rules``, ``network-parameters``.
* ``sweep`` — map of dotted config paths to value lists, expanded
  one-factor-at-a-time. ``null`` or an empty map means no sweep.

The schema is declared once, in ``_RECORDS``: each record class lists its
``(YAML key, attribute, reader)`` triples in canonical key order, and both
``parse_config`` and ``to_mapping`` walk that table. A field is optional when
its dataclass field has a default, and ``to_mapping`` leaves it out while it
holds that default.

Parsing is strict: unknown keys and wrong value kinds raise ``ConfigError``
with the document path to the offending node. ``validate`` reports semantic
violations (weight sums, dangling references, bad bounds) without raising.
"""

from __future__ import annotations

import copy
import os
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from typing import Any, Union

import numpy as np
import yaml

from . import gexf as gexf_io
from .errors import ConfigError, GraphError
from .graph import (
    AttributeTable,
    Graph,
    NodeStates,
    check_barabasi_albert,
    check_erdos_renyi,
    check_random_regular,
    generate_barabasi_albert,
    generate_erdos_renyi,
    generate_random_regular,
    load_edge_list,
)
from .metrics import METRICS, top_k_by_metric
from .rules import Compartment, CountDown, NodeCategorical, NodeStochastic, Rule

MODEL_DIFFUSION = "diffusion"
MODEL_CUSTOM = "custom"

WEIGHT_SUM_TOL = 1e-6


# ---------------------------------------------------------------------------
# Config dataclasses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomStructure:
    generator: str  # random-regular | barabasi-albert | erdos-renyi
    count: int
    degree: int | None = None
    m: int | None = None
    p: float | None = None


@dataclass(frozen=True)
class FileStructure:
    path: str
    format: str  # edge-list | gexf
    directed: bool = False


Structure = Union[RandomStructure, FileStructure]


@dataclass(frozen=True)
class RandomWithWeight:
    weight: float


@dataclass(frozen=True)
class RandomWithCount:
    count: int


@dataclass(frozen=True)
class ChooseWithMetric:
    metric: str
    count: int


@dataclass(frozen=True)
class FromFile:
    path: str


NodeTypeInit = Union[RandomWithWeight, RandomWithCount, ChooseWithMetric, FromFile]


@dataclass(frozen=True)
class NumericalParam:
    low: float
    high: float


@dataclass(frozen=True)
class CategoricalParam:
    options: tuple[str, ...]
    weights: tuple[float, ...] | None = None


ParamSpec = Union[NumericalParam, CategoricalParam]


@dataclass(frozen=True)
class RuleSpec:
    from_type: str
    to_type: str
    compartment: str


@dataclass(frozen=True)
class Definitions:
    model_kind: str
    nodetypes: dict[str, NodeTypeInit]
    node_parameters: dict[str, ParamSpec] = field(default_factory=dict)
    edge_parameters: dict[str, ParamSpec] = field(default_factory=dict)
    compartments: dict[str, Compartment] = field(default_factory=dict)
    rules: dict[str, RuleSpec] = field(default_factory=dict)
    network_parameters: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ProjectConfig:
    name: str
    structure: Structure
    definitions: Definitions
    sweep: dict[str, tuple] | None = None


# ---------------------------------------------------------------------------
# Parsing helpers. Every reader carries the document path for error messages.
# ---------------------------------------------------------------------------


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _as_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected a mapping, got {type(value).__name__}", path)
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {type(value).__name__}", path)
    return value


def _scalar(what: str, *kinds: type, convert=None):
    """Reader of a scalar of one of ``kinds``; a bool passes only where ``bool`` is named."""

    def read(value, path: str):
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise ConfigError(f"expected {what}, got {value!r}", path)
        return value if convert is None else convert(value)

    return read


_as_str = _scalar("a string", str)
_as_int = _scalar("an integer", int)
_as_number = _scalar("a number", int, float, convert=float)
_as_bool = _scalar("a boolean", bool)
_as_optional_str = _scalar("a string", str, type(None))


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})", _join(path, key))


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", path)
    return mapping[key]


@cache
def _defaults(cls) -> dict:
    """The default of every optional field of a record class."""
    return {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(cls)
        if f.default is not MISSING or f.default_factory is not MISSING
    }


def _read(cls, value, path: str, extra: tuple[str, ...] = ()):
    """Read a ``cls`` row (a list) or record (a mapping that may also hold ``extra`` keys)."""
    if cls in _ROWS:
        shape, read_item = _ROWS[cls]
        row = _as_list(value, path)
        if len(row) != len(fields(cls)):
            raise ConfigError(f"{shape}, got {len(row)} entries", path)
        return cls(*(read_item(item, f"{path}[{i}]") for i, item in enumerate(row)))
    m = _as_map(value, path)
    record = _RECORDS[cls]
    _check_keys(m, {key for key, _, _ in record}.union(extra), path)
    optional = _defaults(cls)
    kwargs = {}
    for key, attr, read in record:
        if key in m:
            kwargs[attr] = read(m[key], _join(path, key))
        elif attr not in optional:
            raise ConfigError(f"missing required key {key!r}", path or key)
    return cls(**kwargs)


def _to_yaml(value):
    """The canonical YAML form of a config value; a field at its default is left out."""
    cls = type(value)
    if cls in _ROWS:
        return [getattr(value, f.name) for f in fields(cls)]
    if cls not in _RECORDS:
        if isinstance(value, dict):
            return {key: _to_yaml(item) for key, item in value.items()}
        return list(value) if isinstance(value, tuple) else value
    defaults = _defaults(cls)
    out = {
        key: _WRITERS.get(read, _to_yaml)(getattr(value, attr))
        for key, attr, read in _RECORDS[cls]
        if attr not in defaults or getattr(value, attr) != defaults[attr]
    }
    if cls in _INIT_KINDS:
        return {_INIT_KINDS[cls]: out}
    if cls in _COMPARTMENT_KINDS:
        return {"type": _COMPARTMENT_KINDS[cls], **out}
    return out


def _list_of(read):
    return lambda value, path: tuple(read(item, f"{path}[{i}]") for i, item in enumerate(_as_list(value, path)))


def _map_of(read):
    """Reader of a named section: names (as strings) to what ``read`` reads."""
    return lambda value, path: {str(key): read(item, f"{path}.{key}") for key, item in _as_map(value, path).items()}


def _read_format(value, path: str) -> str:
    fmt = _as_str(value, path)
    if fmt not in ("edge-list", "gexf"):
        raise ConfigError(f"unknown file format {fmt!r} (valid: edge-list, gexf)", path)
    return fmt


def _read_model_kind(value, path: str) -> str:
    kind = _as_str(value, path)
    if kind not in (MODEL_DIFFUSION, MODEL_CUSTOM):
        raise ConfigError(f"model name must be 'diffusion' or 'custom', got {kind!r}", path)
    return kind


def _read_network_parameter(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"network parameter must be a number or string, got {value!r}", path)
    return value


def _read_sweep_values(value, path: str) -> tuple:
    values = _as_list(value, path)
    if not values:
        raise ConfigError("sweep values must be a non-empty list", path)
    return tuple(values)


def _read_sweep(value, path: str) -> dict[str, tuple] | None:
    # An empty map means no sweep, as null does.
    return None if value is None else _map_of(_read_sweep_values)(value, path) or None


# Generator type -> its one parameter, that parameter's reader, the generator and the check it makes first.
_GENERATORS = {
    "random-regular": ("degree", _as_int, generate_random_regular, check_random_regular),
    "barabasi-albert": ("m", _as_int, generate_barabasi_albert, check_barabasi_albert),
    "erdos-renyi": ("p", _as_number, generate_erdos_renyi, check_erdos_renyi),
}


def _read_random(value, path: str) -> RandomStructure:
    r = _as_map(value, path)
    gen = _as_str(_require(r, "type", path), f"{path}.type")
    count = _as_int(_require(r, "count", path), f"{path}.count")
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}", f"{path}.count")
    if gen not in _GENERATORS:
        raise ConfigError(f"unknown generator type {gen!r} (valid: {', '.join(_GENERATORS)})", f"{path}.type")
    key, read, _, _ = _GENERATORS[gen]
    _check_keys(r, {"type", "count", key}, path)
    return RandomStructure(gen, count, **{key: read(_require(r, key, path), f"{path}.{key}")})


def _read_structure(value, path: str) -> Structure:
    m = _as_map(value, path)
    _check_keys(m, {"random", "file"}, path)
    if ("random" in m) == ("file" in m):
        raise ConfigError("structure needs exactly one of 'random' or 'file'", path)
    if "random" in m:
        return _read_random(m["random"], f"{path}.random")
    return _read(FileStructure, m["file"], f"{path}.file")


_INITS = {
    "random-with-weight": RandomWithWeight,
    "random-with-count": RandomWithCount,
    "choose_with_metric": ChooseWithMetric,
    "from-file": FromFile,
}
_INIT_KINDS = {cls: kind for kind, cls in _INITS.items()}


def _read_init(value, path: str) -> NodeTypeInit:
    m = _as_map(value, path)
    valid = ", ".join(sorted(_INITS))
    if len(m) != 1:
        raise ConfigError(f"node type init must have exactly one kind key (valid: {valid})", path)
    ((kind, body),) = m.items()
    if kind not in _INITS:
        raise ConfigError(f"unknown init kind {kind!r} (valid: {valid})", f"{path}.{kind}")
    return _read(_INITS[kind], body, f"{path}.{kind}")


def _read_nodetypes(value, path: str) -> dict[str, NodeTypeInit]:
    nodetypes = _map_of(_read_init)(value, path)
    if not nodetypes:
        raise ConfigError("at least one node type is required", path)
    return nodetypes


_PARAMS = {"numerical": NumericalParam, "categorical": CategoricalParam}


def _read_params(value, path: str) -> dict[str, ParamSpec]:
    m = _as_map(value, path)
    _check_keys(m, set(_PARAMS), path)
    params: dict[str, ParamSpec] = {}
    for section, cls in _PARAMS.items():
        for key, spec in _as_map(m.get(section, {}), f"{path}.{section}").items():
            spath = f"{path}.{section}.{key}"
            spec = _read(cls, spec, spath)
            if str(key) in params:
                raise ConfigError(f"duplicate parameter {str(key)!r}", spath)
            params[str(key)] = spec
    return params


def _write_params(params: dict[str, ParamSpec]) -> dict:
    sections = {s: {k: _to_yaml(p) for k, p in params.items() if isinstance(p, cls)} for s, cls in _PARAMS.items()}
    return {section: specs for section, specs in sections.items() if specs}


_COMPARTMENTS = {"node-stochastic": NodeStochastic, "count-down": CountDown, "node-categorical": NodeCategorical}
_COMPARTMENT_KINDS = {cls: kind for kind, cls in _COMPARTMENTS.items()}


def _read_compartment(value, path: str) -> Compartment:
    m = _as_map(value, path)
    kind = _as_str(_require(m, "type", path), f"{path}.type")
    if kind not in _COMPARTMENTS:
        valid = ", ".join(sorted(_COMPARTMENTS))
        raise ConfigError(f"unknown compartment type {kind!r} (valid: {valid})", f"{path}.type")
    return _read(_COMPARTMENTS[kind], m, path, extra=("type",))


def _read_definitions(value, path: str) -> Definitions:
    outer = _as_map(value, path)
    _check_keys(outer, {"pd-model"}, path)
    return _read(Definitions, _require(outer, "pd-model", path), f"{path}.pd-model")


# The schema: each record's (YAML key, attribute, reader) triples, in
# canonical key order.
_RECORDS = {
    ProjectConfig: (
        ("name", "name", _as_str),
        ("structure", "structure", _read_structure),
        ("definitions", "definitions", _read_definitions),
        ("sweep", "sweep", _read_sweep),
    ),
    RandomStructure: (
        ("type", "generator", _as_str),
        ("count", "count", _as_int),
        *((key, key, read) for key, read, _, _ in _GENERATORS.values()),
    ),
    FileStructure: (("path", "path", _as_str), ("format", "format", _read_format), ("directed", "directed", _as_bool)),
    RandomWithWeight: (("initial-weight", "weight", _as_number),),
    RandomWithCount: (("count", "count", _as_int),),
    ChooseWithMetric: (("metric", "metric", _as_str), ("count", "count", _as_int)),
    FromFile: (("path", "path", _as_str),),
    CategoricalParam: (("options", "options", _list_of(_as_str)), ("weights", "weights", _list_of(_as_number))),
    NodeStochastic: (("ratio", "ratio", _as_number), ("triggering_status", "triggering_status", _as_optional_str)),
    CountDown: (("name", "name", _as_str), ("iteration-count", "iteration_count", _as_int)),
    NodeCategorical: (
        ("attribute", "attribute", _as_str),
        ("value", "value", _as_str),
        ("probability", "probability", _as_number),
    ),
    Definitions: (
        ("name", "model_kind", _read_model_kind),
        ("nodetypes", "nodetypes", _read_nodetypes),
        ("node-parameters", "node_parameters", _read_params),
        ("edge-parameters", "edge_parameters", _read_params),
        ("compartments", "compartments", _map_of(_read_compartment)),
        ("rules", "rules", _map_of(partial(_read, RuleSpec))),
        ("network-parameters", "network_parameters", _map_of(_read_network_parameter)),
    ),
}
# Records written as a YAML list: the text naming their shape, and their items' reader.
_ROWS = {
    NumericalParam: ("expected [low, high]", _as_number),
    RuleSpec: ("rule must be [from, to, compartment]", _as_str),
}
# Readers whose value has a YAML form of its own; every other value goes through _to_yaml.
_WRITERS = {
    _read_structure: lambda s: {"random" if isinstance(s, RandomStructure) else "file": _to_yaml(s)},
    _read_definitions: lambda d: {"pd-model": _to_yaml(d)},
    _read_params: _write_params,
}


def parse_config(source) -> ProjectConfig:
    """Parse a YAML text or an already-loaded mapping into a ProjectConfig."""
    if isinstance(source, (str, bytes)):
        try:
            source = yaml.safe_load(source)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
    return _read(ProjectConfig, source, "")


def load_config(path) -> ProjectConfig:
    """Load and parse a config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


def to_mapping(config: ProjectConfig, include_sweep: bool = True) -> dict:
    """ProjectConfig back to a plain mapping in canonical key order."""
    out = _to_yaml(config)
    if not (include_sweep and config.sweep):
        out.pop("sweep", None)
    return out


def serialize_config(config: ProjectConfig, include_sweep: bool = True) -> str:
    """Canonical YAML text for a config; ``parse_config`` reads it back to an equal config."""
    return yaml.safe_dump(to_mapping(config, include_sweep=include_sweep), sort_keys=False)


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def validate(config: ProjectConfig, node_count_hint: int | None = None) -> list[str]:
    """Semantic checks. Returns a list of violation messages (empty when valid)."""
    v: list[str] = []
    d = config.definitions
    base = "definitions.pd-model"

    weight_types, count_types, metric_types, file_types = (
        {n: i for n, i in d.nodetypes.items() if isinstance(i, cls)} for cls in _INIT_KINDS
    )

    if weight_types and count_types:
        v.append(f"{base}.nodetypes: cannot mix random-with-weight and random-with-count types in one config")
    if len(metric_types) > 1:
        v.append(f"{base}.nodetypes: choose_with_metric may appear on at most one node type, found {len(metric_types)}")
    for name, init in metric_types.items():
        if init.metric not in METRICS:
            v.append(
                f"{base}.nodetypes.{name}: unknown metric {init.metric!r} (valid: {', '.join(sorted(METRICS))})"
            )
        if init.count < 0:
            v.append(f"{base}.nodetypes.{name}: metric count must be >= 0, got {init.count}")
    for name, init in weight_types.items():
        if init.weight < 0:
            v.append(f"{base}.nodetypes.{name}: initial-weight must be >= 0, got {init.weight}")
    for name, init in count_types.items():
        if init.count < 0:
            v.append(f"{base}.nodetypes.{name}: count must be >= 0, got {init.count}")
    if weight_types:
        total = sum(i.weight for i in weight_types.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            v.append(f"{base}.nodetypes: initial weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")

    n = node_count_hint
    if isinstance(config.structure, RandomStructure):
        key, _, _, check = _GENERATORS[config.structure.generator]
        try:
            check(config.structure.count, getattr(config.structure, key))
        except GraphError as exc:
            v.append(f"structure.random.{key}: {exc}")
        n = config.structure.count if n is None else n
    if n is not None:
        fixed = sum(i.count for i in metric_types.values())
        for name, init in metric_types.items():
            if init.count > n:
                v.append(f"{base}.nodetypes.{name}: metric count {init.count} exceeds node count {n}")
        if count_types and not weight_types and not file_types:
            total_counts = fixed + sum(i.count for i in count_types.values())
            if total_counts != n:
                v.append(f"{base}.nodetypes: type counts sum to {total_counts}, expected node count {n}")

    for scope, params in (("node-parameters", d.node_parameters), ("edge-parameters", d.edge_parameters)):
        for key, spec in params.items():
            if isinstance(spec, NumericalParam):
                if spec.low > spec.high:
                    v.append(f"{base}.{scope}.numerical.{key}: low {spec.low} > high {spec.high}")
            else:
                if not spec.options:
                    v.append(f"{base}.{scope}.categorical.{key}: options must be non-empty")
                if spec.weights is not None:
                    if len(spec.weights) != len(spec.options):
                        v.append(
                            f"{base}.{scope}.categorical.{key}: {len(spec.weights)} weights for {len(spec.options)} options"
                        )
                    elif any(w < 0 for w in spec.weights):
                        v.append(f"{base}.{scope}.categorical.{key}: weights must be >= 0")
                    elif abs(sum(spec.weights) - 1.0) > WEIGHT_SUM_TOL:
                        v.append(
                            f"{base}.{scope}.categorical.{key}: weights sum to {sum(spec.weights)!r}, expected 1"
                        )

    if d.model_kind == MODEL_CUSTOM and (d.compartments or d.rules):
        v.append(f"{base}: compartments/rules only exist under diffusion models")

    for cid, comp in d.compartments.items():
        cpath = f"{base}.compartments.{cid}"
        if isinstance(comp, NodeStochastic):
            if not 0.0 <= comp.ratio <= 1.0:
                v.append(f"{cpath}: ratio must be in [0, 1], got {comp.ratio}")
            if comp.triggering_status is not None and comp.triggering_status not in d.nodetypes:
                v.append(f"{cpath}: triggering_status {comp.triggering_status!r} is not a declared node type")
        elif isinstance(comp, CountDown):
            if comp.iteration_count < 1:
                v.append(f"{cpath}: iteration-count must be >= 1, got {comp.iteration_count}")
        else:
            if not 0.0 <= comp.probability <= 1.0:
                v.append(f"{cpath}: probability must be in [0, 1], got {comp.probability}")
            declared = d.node_parameters.get(comp.attribute)
            if isinstance(declared, CategoricalParam) and comp.value not in declared.options:
                v.append(f"{cpath}: value {comp.value!r} not among options of attribute {comp.attribute!r}")

    for rid, rule in d.rules.items():
        rpath = f"{base}.rules.{rid}"
        if rule.compartment not in d.compartments:
            v.append(f"{rpath}: dangling reference to compartment {rule.compartment!r}")
        if rule.from_type not in d.nodetypes:
            v.append(f"{rpath}: source type {rule.from_type!r} is not a declared node type")
        if rule.to_type not in d.nodetypes:
            v.append(f"{rpath}: target type {rule.to_type!r} is not a declared node type")

    if config.sweep:
        mapping = to_mapping(config, include_sweep=False)
        for path_key, values in config.sweep.items():
            if not values:
                v.append(f"sweep.{path_key}: values must be non-empty")
            try:
                _resolve_sweep_parent(mapping, path_key)
            except ConfigError as exc:
                v.append(str(exc))
        v += sweep_label_violations(config)
    return v


# ---------------------------------------------------------------------------
# Sweep expansion (one factor at a time).
# ---------------------------------------------------------------------------


def _resolve_sweep_parent(mapping: dict, dotted: str) -> tuple[dict, str]:
    """Walk a dotted path; the pd-model level is transparent after 'definitions'."""
    parts = dotted.split(".")
    node: Any = mapping
    for i, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(f"sweep path {dotted!r} does not resolve at {'.'.join(parts[:i])!r}", f"sweep.{dotted}")
        container = node
        if part not in container and "pd-model" in container and part in container["pd-model"]:
            container = container["pd-model"]
        if part not in container:
            raise ConfigError(f"sweep path {dotted!r} does not resolve: no key {part!r}", f"sweep.{dotted}")
        if i == len(parts) - 1:
            return container, part
        node = container[part]


def sweep_assignments(config: ProjectConfig) -> list[tuple[str, Any]]:
    """The (dotted path, value) pairs of the expansion, in declaration order."""
    return [(path_key, value) for path_key, values in (config.sweep or {}).items() for value in values]


def expand_sweep(config: ProjectConfig) -> list[ProjectConfig]:
    """One config per swept value, varying one parameter at a time.

    Order follows parameter declaration order, then value order. Without a
    sweep section, returns the config itself as the single entry. Expanded
    configs carry no sweep section.
    """
    if not config.sweep:
        return [config]
    base_mapping = to_mapping(config, include_sweep=False)
    expanded: list[ProjectConfig] = []
    for path_key, values in config.sweep.items():
        for value in values:
            mapping = copy.deepcopy(base_mapping)
            parent, leaf = _resolve_sweep_parent(mapping, path_key)
            parent[leaf] = value
            expanded.append(parse_config(mapping))
    return expanded


def sweep_labels(config: ProjectConfig) -> list[str]:
    """Directory labels for the expansion, e.g. ``r_UT=0.4``. Unique per entry."""
    assignments = [(path, path.split(".")[-1], value) for path, value in sweep_assignments(config)]
    paths_by_leaf: dict[str, set[str]] = {}
    for path, leaf, _ in assignments:
        paths_by_leaf.setdefault(leaf, set()).add(path)
    return [
        f"{leaf if len(paths_by_leaf[leaf]) == 1 else path.replace('.', '_')}={value}"
        for path, leaf, value in assignments
    ]


def is_plain_name(name: str) -> bool:
    """Whether ``name`` names one directory entry: not empty, ``.`` or ``..``, with no ``/``, ``os.sep`` or NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in ("/", os.sep, "\0"))


def sweep_label_violations(config: ProjectConfig) -> list[str]:
    """A violation per sweep label that repeats an earlier one or is no plain directory name."""
    v: list[str] = []
    seen: set[str] = set()
    for (path_key, _), label in zip(sweep_assignments(config), sweep_labels(config)):
        if label in seen:
            v.append(f"sweep.{path_key}: label {label!r} repeats; two variants would share one directory")
        elif not is_plain_name(label):
            v.append(f"sweep.{path_key}: label {label!r} is not a plain directory name")
        seen.add(label)
    return v


def build_rules(definitions: Definitions) -> list[Rule]:
    """Resolve rule triples to executable rules, in declaration order."""
    out: list[Rule] = []
    for rid, spec in definitions.rules.items():
        comp = definitions.compartments.get(spec.compartment)
        if comp is None:
            raise ConfigError(
                f"dangling reference to compartment {spec.compartment!r}",
                f"definitions.pd-model.rules.{rid}",
            )
        out.append(Rule(spec.from_type, spec.to_type, comp))
    return out


# ---------------------------------------------------------------------------
# Graph construction and population initialization.
# ---------------------------------------------------------------------------


def _resolve(path: str, base_dir) -> Path:
    """``path``, taken relative to ``base_dir`` unless it is absolute or ``base_dir`` is None."""
    if base_dir is None or Path(path).is_absolute():
        return Path(path)
    return Path(base_dir) / path


def build_graph(config: ProjectConfig, rng: np.random.Generator, base_dir=None) -> Graph:
    """Realize the structure section into a Graph (drawing from rng if random; a file draws nothing)."""
    s = config.structure
    if isinstance(s, RandomStructure):
        key, _, generate, _ = _GENERATORS[s.generator]
        return generate(s.count, getattr(s, key), rng)
    path = _resolve(s.path, base_dir)
    if not path.is_file():
        raise ConfigError(f"structure file not found: {path}", "structure.file.path")
    if s.format == "edge-list":
        return load_edge_list(path, directed=s.directed)
    return gexf_io.read_gexf(path)[0]  # the topology alone: no attribute column is built


def _read_node_id_file(path: Path) -> list[int]:
    ids: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                ids.append(int(line))
            except ValueError:
                raise ConfigError(f"line {line_no}: expected a node id, got {line!r}", str(path)) from None
    return ids


def _weighted_choice(weights, draws: np.ndarray) -> np.ndarray:
    """Index of the weight whose cumulative interval holds each uniform draw."""
    index = np.searchsorted(np.cumsum(weights), draws, side="right")
    return np.minimum(index, len(weights) - 1, out=index)  # clipped in place: one node-sized array fewer


def _draw(spec: ParamSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` values of one node or edge parameter: float64 for a numerical one, else str objects."""
    if isinstance(spec, NumericalParam):
        return rng.uniform(spec.low, spec.high, size)
    if spec.weights is None:
        idx = rng.integers(0, len(spec.options), size)
    else:
        idx = _weighted_choice(spec.weights, rng.random(size))
    return np.array(spec.options, dtype=object)[idx]


def initialize_population(
    graph: Graph,
    config: ProjectConfig,
    rng: np.random.Generator,
    base_dir=None,
) -> tuple[NodeStates, AttributeTable, dict[str, Any]]:
    """Assign node types (as codes in declaration order) and draw node/edge parameters.

    Draw order is part of the determinism contract: metric/file types first,
    then the weighted or counted remainder (one draw per node for weights, a
    shuffled exact partition for counts), then node parameters in declaration
    order (ascending node id within each), then edge parameters in sorted edge
    order. Network parameters are copied as-is.
    """
    violations = validate(config, node_count_hint=graph.num_nodes)
    if violations:
        raise ConfigError("invalid config:\n  " + "\n  ".join(violations))

    d = config.definitions
    n = graph.num_nodes
    states = NodeStates(d.nodetypes, n)
    codes = states.codes

    for code, init in enumerate(d.nodetypes.values()):
        if isinstance(init, ChooseWithMetric) and init.count:
            codes[top_k_by_metric(graph, init.metric, init.count)] = code

    for code, (type_name, init) in enumerate(d.nodetypes.items()):
        if not isinstance(init, FromFile):
            continue
        where = f"definitions.pd-model.nodetypes.{type_name}"
        path = _resolve(init.path, base_dir)
        if not path.is_file():
            raise ConfigError(f"node id file not found: {path}", where)
        for node in _read_node_id_file(path):
            if not 0 <= node < n:
                raise ConfigError(f"node id {node} out of range [0, {n})", where)
            if codes[node] >= 0:
                raise ConfigError(f"node {node} assigned twice during initialization", where)
            codes[node] = code

    remaining = np.flatnonzero(codes < 0)
    weight_types = [(c, i.weight) for c, i in enumerate(d.nodetypes.values()) if isinstance(i, RandomWithWeight)]
    count_types = [(c, i.count) for c, i in enumerate(d.nodetypes.values()) if isinstance(i, RandomWithCount)]
    if weight_types:
        picked = _weighted_choice([w for _, w in weight_types], rng.random(remaining.size))
        codes[remaining] = np.array([c for c, _ in weight_types], dtype=codes.dtype)[picked]
    elif count_types:
        total = sum(c for _, c in count_types)
        if total != remaining.size:
            raise ConfigError(
                f"type counts sum to {total}, but {remaining.size} nodes remain unassigned",
                "definitions.pd-model.nodetypes",
            )
        perm = rng.permutation(remaining)
        offset = 0
        for code, count in count_types:
            codes[perm[offset : offset + count]] = code
            offset += count
    elif remaining.size:
        raise ConfigError(
            f"{remaining.size} nodes left unassigned (no weight or count types declared)",
            "definitions.pd-model.nodetypes",
        )

    attrs = AttributeTable()
    for key, spec in d.node_parameters.items():
        attrs.set_node_column(key, _draw(spec, n, rng))

    for key, spec in d.edge_parameters.items():
        src, dst = graph.edge_arrays()
        values = _draw(spec, src.size, rng)
        if not graph.directed:  # an undirected edge's value holds on both of its pairs
            src, dst, values = np.concatenate((src, dst)), np.concatenate((dst, src)), np.concatenate((values, values))
        attrs.set_edge_column(key, values, (src, dst))

    return states, attrs, dict(d.network_parameters)

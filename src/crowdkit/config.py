"""Configuration documents: parsing, validation, sweep expansion, population init.

The YAML schema (see config-reference.md at the repository root):

* ``name`` — simulation name.
* ``structure`` — either ``random`` (generator ``type`` plus ``count`` and the
  generator's parameter) or ``file`` (``path`` + ``format``).
* ``definitions.pd-model`` — ``name`` (``diffusion`` or ``custom``),
  ``nodetypes``, ``node-parameters``, ``edge-parameters``, ``compartments``,
  ``rules``, ``network-parameters``.
* ``sweep`` — map of dotted config paths to value lists, expanded
  one-factor-at-a-time.

Parsing is strict: unknown keys and wrong value kinds raise ``ConfigError``
with the document path to the offending node. ``validate`` reports semantic
violations (weight sums, dangling references, bad bounds) without raising.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Union

import numpy as np
import yaml

from . import gexf as gexf_io
from .errors import ConfigError
from .graph import (
    AttributeTable,
    Graph,
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
    node_parameters: dict[str, ParamSpec]
    edge_parameters: dict[str, ParamSpec]
    compartments: dict[str, Compartment]
    rules: dict[str, RuleSpec]
    network_parameters: dict[str, Any]


@dataclass(frozen=True)
class ProjectConfig:
    name: str
    structure: Structure
    definitions: Definitions
    sweep: dict[str, tuple] | None = None


# ---------------------------------------------------------------------------
# Parsing helpers. Every reader carries the document path for error messages.
# ---------------------------------------------------------------------------


def _as_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected a mapping, got {type(value).__name__}", path)
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {type(value).__name__}", path)
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", path)
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    return float(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected a boolean, got {value!r}", path)
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})", f"{path}.{key}" if path else str(key)
            )


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", path)
    return mapping[key]


def _parse_structure(value, path: str) -> Structure:
    m = _as_map(value, path)
    _check_keys(m, {"random", "file"}, path)
    if ("random" in m) == ("file" in m):
        raise ConfigError("structure needs exactly one of 'random' or 'file'", path)
    if "random" in m:
        r = _as_map(m["random"], f"{path}.random")
        rpath = f"{path}.random"
        gen = _as_str(_require(r, "type", rpath), f"{rpath}.type")
        count = _as_int(_require(r, "count", rpath), f"{rpath}.count")
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}", f"{rpath}.count")
        if gen == "random-regular":
            _check_keys(r, {"type", "count", "degree"}, rpath)
            degree = _as_int(_require(r, "degree", rpath), f"{rpath}.degree")
            return RandomStructure(generator=gen, count=count, degree=degree)
        if gen == "barabasi-albert":
            _check_keys(r, {"type", "count", "m"}, rpath)
            m_val = _as_int(_require(r, "m", rpath), f"{rpath}.m")
            return RandomStructure(generator=gen, count=count, m=m_val)
        if gen == "erdos-renyi":
            _check_keys(r, {"type", "count", "p"}, rpath)
            p_val = _as_number(_require(r, "p", rpath), f"{rpath}.p")
            return RandomStructure(generator=gen, count=count, p=p_val)
        raise ConfigError(
            f"unknown generator type {gen!r} (valid: random-regular, barabasi-albert, erdos-renyi)",
            f"{rpath}.type",
        )
    f = _as_map(m["file"], f"{path}.file")
    fpath = f"{path}.file"
    _check_keys(f, {"path", "format", "directed"}, fpath)
    file_path = _as_str(_require(f, "path", fpath), f"{fpath}.path")
    fmt = _as_str(_require(f, "format", fpath), f"{fpath}.format")
    if fmt not in ("edge-list", "gexf"):
        raise ConfigError(f"unknown file format {fmt!r} (valid: edge-list, gexf)", f"{fpath}.format")
    directed = _as_bool(f.get("directed", False), f"{fpath}.directed")
    return FileStructure(path=file_path, format=fmt, directed=directed)


_INIT_KINDS = {"random-with-weight", "random-with-count", "choose_with_metric", "from-file"}


def _parse_nodetype_init(value, path: str) -> NodeTypeInit:
    m = _as_map(value, path)
    if len(m) != 1:
        raise ConfigError(
            f"node type init must have exactly one kind key (valid: {', '.join(sorted(_INIT_KINDS))})", path
        )
    kind, body = next(iter(m.items()))
    kpath = f"{path}.{kind}"
    if kind not in _INIT_KINDS:
        raise ConfigError(f"unknown init kind {kind!r} (valid: {', '.join(sorted(_INIT_KINDS))})", kpath)
    b = _as_map(body, kpath)
    if kind == "random-with-weight":
        _check_keys(b, {"initial-weight"}, kpath)
        return RandomWithWeight(weight=_as_number(_require(b, "initial-weight", kpath), f"{kpath}.initial-weight"))
    if kind == "random-with-count":
        _check_keys(b, {"count"}, kpath)
        return RandomWithCount(count=_as_int(_require(b, "count", kpath), f"{kpath}.count"))
    if kind == "choose_with_metric":
        _check_keys(b, {"metric", "count"}, kpath)
        return ChooseWithMetric(
            metric=_as_str(_require(b, "metric", kpath), f"{kpath}.metric"),
            count=_as_int(_require(b, "count", kpath), f"{kpath}.count"),
        )
    _check_keys(b, {"path"}, kpath)
    return FromFile(path=_as_str(_require(b, "path", kpath), f"{kpath}.path"))


def _parse_parameters(value, path: str) -> dict[str, ParamSpec]:
    m = _as_map(value, path)
    _check_keys(m, {"numerical", "categorical"}, path)
    params: dict[str, ParamSpec] = {}
    if "numerical" in m:
        num = _as_map(m["numerical"], f"{path}.numerical")
        for key, bounds in num.items():
            bpath = f"{path}.numerical.{key}"
            lst = _as_list(bounds, bpath)
            if len(lst) != 2:
                raise ConfigError(f"expected [low, high], got {len(lst)} entries", bpath)
            low = _as_number(lst[0], f"{bpath}[0]")
            high = _as_number(lst[1], f"{bpath}[1]")
            if key in params:
                raise ConfigError(f"duplicate parameter {key!r}", bpath)
            params[key] = NumericalParam(low=low, high=high)
    if "categorical" in m:
        cat = _as_map(m["categorical"], f"{path}.categorical")
        for key, spec in cat.items():
            cpath = f"{path}.categorical.{key}"
            s = _as_map(spec, cpath)
            _check_keys(s, {"options", "weights"}, cpath)
            options = tuple(
                _as_str(o, f"{cpath}.options[{i}]") for i, o in enumerate(_as_list(_require(s, "options", cpath), f"{cpath}.options"))
            )
            weights = None
            if "weights" in s:
                weights = tuple(
                    _as_number(w, f"{cpath}.weights[{i}]") for i, w in enumerate(_as_list(s["weights"], f"{cpath}.weights"))
                )
            if key in params:
                raise ConfigError(f"duplicate parameter {key!r}", cpath)
            params[key] = CategoricalParam(options=options, weights=weights)
    return params


_COMPARTMENT_KINDS = {"node-stochastic", "count-down", "node-categorical"}


def _parse_compartment(value, path: str) -> Compartment:
    m = _as_map(value, path)
    kind = _as_str(_require(m, "type", path), f"{path}.type")
    if kind == "node-stochastic":
        _check_keys(m, {"type", "ratio", "triggering_status"}, path)
        trigger = m.get("triggering_status")
        if trigger is not None:
            trigger = _as_str(trigger, f"{path}.triggering_status")
        return NodeStochastic(
            ratio=_as_number(_require(m, "ratio", path), f"{path}.ratio"),
            triggering_status=trigger,
        )
    if kind == "count-down":
        _check_keys(m, {"type", "name", "iteration-count"}, path)
        return CountDown(
            name=_as_str(_require(m, "name", path), f"{path}.name"),
            iteration_count=_as_int(_require(m, "iteration-count", path), f"{path}.iteration-count"),
        )
    if kind == "node-categorical":
        _check_keys(m, {"type", "attribute", "value", "probability"}, path)
        return NodeCategorical(
            attribute=_as_str(_require(m, "attribute", path), f"{path}.attribute"),
            value=_as_str(_require(m, "value", path), f"{path}.value"),
            probability=_as_number(_require(m, "probability", path), f"{path}.probability"),
        )
    raise ConfigError(
        f"unknown compartment type {kind!r} (valid: {', '.join(sorted(_COMPARTMENT_KINDS))})", f"{path}.type"
    )


def _parse_definitions(value, path: str) -> Definitions:
    outer = _as_map(value, path)
    _check_keys(outer, {"pd-model"}, path)
    model = _as_map(_require(outer, "pd-model", path), f"{path}.pd-model")
    mpath = f"{path}.pd-model"
    _check_keys(
        model,
        {
            "name",
            "nodetypes",
            "node-parameters",
            "edge-parameters",
            "compartments",
            "rules",
            "network-parameters",
        },
        mpath,
    )
    kind = _as_str(_require(model, "name", mpath), f"{mpath}.name")
    if kind not in (MODEL_DIFFUSION, MODEL_CUSTOM):
        raise ConfigError(f"model name must be 'diffusion' or 'custom', got {kind!r}", f"{mpath}.name")

    nodetypes: dict[str, NodeTypeInit] = {}
    nt = _as_map(_require(model, "nodetypes", mpath), f"{mpath}.nodetypes")
    if not nt:
        raise ConfigError("at least one node type is required", f"{mpath}.nodetypes")
    for name, init in nt.items():
        nodetypes[str(name)] = _parse_nodetype_init(init, f"{mpath}.nodetypes.{name}")

    node_parameters = (
        _parse_parameters(model["node-parameters"], f"{mpath}.node-parameters")
        if "node-parameters" in model
        else {}
    )
    edge_parameters = (
        _parse_parameters(model["edge-parameters"], f"{mpath}.edge-parameters")
        if "edge-parameters" in model
        else {}
    )

    compartments: dict[str, Compartment] = {}
    if "compartments" in model:
        for cid, comp in _as_map(model["compartments"], f"{mpath}.compartments").items():
            compartments[str(cid)] = _parse_compartment(comp, f"{mpath}.compartments.{cid}")

    rules: dict[str, RuleSpec] = {}
    if "rules" in model:
        for rid, triple in _as_map(model["rules"], f"{mpath}.rules").items():
            rpath = f"{mpath}.rules.{rid}"
            lst = _as_list(triple, rpath)
            if len(lst) != 3:
                raise ConfigError(f"rule must be [from, to, compartment], got {len(lst)} entries", rpath)
            rules[str(rid)] = RuleSpec(
                from_type=_as_str(lst[0], f"{rpath}[0]"),
                to_type=_as_str(lst[1], f"{rpath}[1]"),
                compartment=_as_str(lst[2], f"{rpath}[2]"),
            )

    network_parameters: dict[str, Any] = {}
    if "network-parameters" in model:
        for key, val in _as_map(model["network-parameters"], f"{mpath}.network-parameters").items():
            if isinstance(val, bool) or not isinstance(val, (int, float, str)):
                raise ConfigError(
                    f"network parameter must be a number or string, got {val!r}",
                    f"{mpath}.network-parameters.{key}",
                )
            network_parameters[str(key)] = val

    return Definitions(
        model_kind=kind,
        nodetypes=nodetypes,
        node_parameters=node_parameters,
        edge_parameters=edge_parameters,
        compartments=compartments,
        rules=rules,
        network_parameters=network_parameters,
    )


def parse_config(source) -> ProjectConfig:
    """Parse a YAML text or an already-loaded mapping into a ProjectConfig."""
    if isinstance(source, (str, bytes)):
        try:
            data = yaml.safe_load(source)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
    else:
        data = source
    root = _as_map(data, "")
    _check_keys(root, {"name", "structure", "definitions", "sweep"}, "")
    name = _as_str(_require(root, "name", "name"), "name")
    structure = _parse_structure(_require(root, "structure", "structure"), "structure")
    definitions = _parse_definitions(_require(root, "definitions", "definitions"), "definitions")
    sweep = None
    if "sweep" in root and root["sweep"] is not None:
        sweep_map = _as_map(root["sweep"], "sweep")
        sweep = {}
        for key, values in sweep_map.items():
            vpath = f"sweep.{key}"
            lst = _as_list(values, vpath)
            if not lst:
                raise ConfigError("sweep values must be a non-empty list", vpath)
            sweep[str(key)] = tuple(lst)
    return ProjectConfig(name=name, structure=structure, definitions=definitions, sweep=sweep)


def load_config(path) -> ProjectConfig:
    """Load and parse a config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Serialization (canonical key order; parse . serialize is the identity).
# ---------------------------------------------------------------------------


def to_mapping(config: ProjectConfig, include_sweep: bool = True) -> dict:
    """ProjectConfig back to a plain mapping in canonical key order."""
    out: dict[str, Any] = {"name": config.name}
    s = config.structure
    if isinstance(s, RandomStructure):
        random: dict[str, Any] = {"type": s.generator, "count": s.count}
        if s.degree is not None:
            random["degree"] = s.degree
        if s.m is not None:
            random["m"] = s.m
        if s.p is not None:
            random["p"] = s.p
        out["structure"] = {"random": random}
    else:
        file_map: dict[str, Any] = {"path": s.path, "format": s.format}
        if s.directed:
            file_map["directed"] = True
        out["structure"] = {"file": file_map}

    d = config.definitions
    model: dict[str, Any] = {"name": d.model_kind}
    nodetypes: dict[str, Any] = {}
    for name, init in d.nodetypes.items():
        if isinstance(init, RandomWithWeight):
            nodetypes[name] = {"random-with-weight": {"initial-weight": init.weight}}
        elif isinstance(init, RandomWithCount):
            nodetypes[name] = {"random-with-count": {"count": init.count}}
        elif isinstance(init, ChooseWithMetric):
            nodetypes[name] = {"choose_with_metric": {"metric": init.metric, "count": init.count}}
        else:
            nodetypes[name] = {"from-file": {"path": init.path}}
    model["nodetypes"] = nodetypes

    for field_name, params in (("node-parameters", d.node_parameters), ("edge-parameters", d.edge_parameters)):
        if not params:
            continue
        numerical = {k: [p.low, p.high] for k, p in params.items() if isinstance(p, NumericalParam)}
        categorical = {}
        for k, p in params.items():
            if isinstance(p, CategoricalParam):
                spec: dict[str, Any] = {"options": list(p.options)}
                if p.weights is not None:
                    spec["weights"] = list(p.weights)
                categorical[k] = spec
        section: dict[str, Any] = {}
        if numerical:
            section["numerical"] = numerical
        if categorical:
            section["categorical"] = categorical
        model[field_name] = section

    if d.compartments:
        comps: dict[str, Any] = {}
        for cid, comp in d.compartments.items():
            if isinstance(comp, NodeStochastic):
                entry: dict[str, Any] = {"type": "node-stochastic", "ratio": comp.ratio}
                if comp.triggering_status is not None:
                    entry["triggering_status"] = comp.triggering_status
            elif isinstance(comp, CountDown):
                entry = {"type": "count-down", "name": comp.name, "iteration-count": comp.iteration_count}
            else:
                entry = {
                    "type": "node-categorical",
                    "attribute": comp.attribute,
                    "value": comp.value,
                    "probability": comp.probability,
                }
            comps[cid] = entry
        model["compartments"] = comps
    if d.rules:
        model["rules"] = {rid: [r.from_type, r.to_type, r.compartment] for rid, r in d.rules.items()}
    if d.network_parameters:
        model["network-parameters"] = dict(d.network_parameters)

    out["definitions"] = {"pd-model": model}
    if include_sweep and config.sweep:
        out["sweep"] = {k: list(v) for k, v in config.sweep.items()}
    return out


def serialize_config(config: ProjectConfig, include_sweep: bool = True) -> str:
    """Canonical YAML text for a config."""
    return yaml.safe_dump(to_mapping(config, include_sweep=include_sweep), sort_keys=False)


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def validate(config: ProjectConfig, node_count_hint: int | None = None) -> list[str]:
    """Semantic checks. Returns a list of violation messages (empty when valid)."""
    v: list[str] = []
    d = config.definitions
    base = "definitions.pd-model"

    weight_types = {n: i for n, i in d.nodetypes.items() if isinstance(i, RandomWithWeight)}
    count_types = {n: i for n, i in d.nodetypes.items() if isinstance(i, RandomWithCount)}
    metric_types = {n: i for n, i in d.nodetypes.items() if isinstance(i, ChooseWithMetric)}
    file_types = {n: i for n, i in d.nodetypes.items() if isinstance(i, FromFile)}

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

    n = None
    if isinstance(config.structure, RandomStructure):
        n = config.structure.count
    if node_count_hint is not None:
        n = node_count_hint
    if n is not None:
        fixed = sum(i.count for i in metric_types.values())
        for name, init in metric_types.items():
            if init.count > n:
                v.append(f"{base}.nodetypes.{name}: metric count {init.count} exceeds node count {n}")
        if count_types and not weight_types and not file_types:
            total_counts = fixed + sum(i.count for i in count_types.values())
            if total_counts != n:
                v.append(
                    f"{base}.nodetypes: type counts sum to {total_counts}, expected node count {n}"
                )

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
    return v


# ---------------------------------------------------------------------------
# Sweep expansion (one factor at a time).
# ---------------------------------------------------------------------------


def _resolve_sweep_parent(mapping: dict, dotted: str) -> tuple[dict, str]:
    """Walk a dotted path; the pd-model level is transparent after 'definitions'."""
    parts = dotted.split(".")
    node: Any = mapping
    trail: list[str] = []
    for i, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(f"sweep path {dotted!r} does not resolve at {'.'.join(trail)!r}", f"sweep.{dotted}")
        container = node
        if part not in container and "pd-model" in container and part in container["pd-model"]:
            container = container["pd-model"]
        if part not in container:
            raise ConfigError(f"sweep path {dotted!r} does not resolve: no key {part!r}", f"sweep.{dotted}")
        trail.append(part)
        if i == len(parts) - 1:
            return container, part
        node = container[part]
    raise ConfigError(f"empty sweep path", f"sweep.{dotted}")


def sweep_assignments(config: ProjectConfig) -> list[tuple[str, Any]]:
    """The (dotted path, value) pairs of the expansion, in declaration order."""
    if not config.sweep:
        return []
    out: list[tuple[str, Any]] = []
    for path_key, values in config.sweep.items():
        for value in values:
            out.append((path_key, value))
    return out


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
    assignments = sweep_assignments(config)
    last_segments = [path.split(".")[-1] for path, _ in assignments]
    seen_paths: dict[str, set[str]] = {}
    for (path, _), seg in zip(assignments, last_segments):
        seen_paths.setdefault(seg, set()).add(path)
    labels = []
    for (path, value), seg in zip(assignments, last_segments):
        key = seg if len(seen_paths[seg]) == 1 else path.replace(".", "_")
        labels.append(f"{key}={value}")
    return labels


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
        out.append(Rule(spec.from_type, spec.to_type, comp, compartment_id=spec.compartment))
    return out


# ---------------------------------------------------------------------------
# Graph construction and population initialization.
# ---------------------------------------------------------------------------


def build_graph(config: ProjectConfig, rng: np.random.Generator, base_dir=None) -> Graph:
    """Realize the structure section into a Graph (drawing from rng if random)."""
    s = config.structure
    if isinstance(s, RandomStructure):
        if s.generator == "random-regular":
            return generate_random_regular(s.count, s.degree or 0, rng)
        if s.generator == "barabasi-albert":
            return generate_barabasi_albert(s.count, s.m or 1, rng)
        return generate_erdos_renyi(s.count, s.p or 0.0, rng)
    path = Path(s.path)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    if not path.is_file():
        raise ConfigError(f"structure file not found: {path}", "structure.file.path")
    if s.format == "edge-list":
        return load_edge_list(path, directed=s.directed)
    graph, _, _ = gexf_io.load_gexf(path)
    return graph


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


def initialize_population(
    graph: Graph,
    config: ProjectConfig,
    rng: np.random.Generator,
    base_dir=None,
) -> tuple[dict[int, str], AttributeTable, dict[str, Any]]:
    """Assign node types and draw node/edge parameters.

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
    states: dict[int, str] = {}

    metric_types = [(t, i) for t, i in d.nodetypes.items() if isinstance(i, ChooseWithMetric)]
    for type_name, init in metric_types:
        if init.count == 0:
            continue
        for v in top_k_by_metric(graph, init.metric, init.count):
            states[v] = type_name

    for type_name, init in d.nodetypes.items():
        if not isinstance(init, FromFile):
            continue
        path = Path(init.path)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        if not path.is_file():
            raise ConfigError(f"node id file not found: {path}", f"definitions.pd-model.nodetypes.{type_name}")
        for node in _read_node_id_file(path):
            if not 0 <= node < n:
                raise ConfigError(
                    f"node id {node} out of range [0, {n})", f"definitions.pd-model.nodetypes.{type_name}"
                )
            if node in states:
                raise ConfigError(
                    f"node {node} assigned twice during initialization",
                    f"definitions.pd-model.nodetypes.{type_name}",
                )
            states[node] = type_name

    remaining = np.array([v for v in range(n) if v not in states], dtype=np.int64)
    weight_types = [(t, i.weight) for t, i in d.nodetypes.items() if isinstance(i, RandomWithWeight)]
    count_types = [(t, i.count) for t, i in d.nodetypes.items() if isinstance(i, RandomWithCount)]
    if weight_types:
        names = [t for t, _ in weight_types]
        cum = np.cumsum([w for _, w in weight_types])
        draws = rng.random(remaining.size)
        idx = np.minimum(np.searchsorted(cum, draws, side="right"), len(names) - 1)
        for v, i in zip(remaining.tolist(), idx.tolist()):
            states[v] = names[i]
    elif count_types:
        total = sum(c for _, c in count_types)
        if total != remaining.size:
            raise ConfigError(
                f"type counts sum to {total}, but {remaining.size} nodes remain unassigned",
                "definitions.pd-model.nodetypes",
            )
        perm = rng.permutation(remaining)
        offset = 0
        for type_name, count in count_types:
            for v in perm[offset : offset + count].tolist():
                states[v] = type_name
            offset += count
    elif remaining.size:
        raise ConfigError(
            f"{remaining.size} nodes left unassigned (no weight or count types declared)",
            "definitions.pd-model.nodetypes",
        )

    attrs = AttributeTable()
    for key, spec in d.node_parameters.items():
        if isinstance(spec, NumericalParam):
            values = rng.uniform(spec.low, spec.high, n)
            attrs.set_node_column(key, dict(enumerate(values.tolist())))
        else:
            options = list(spec.options)
            if spec.weights is None:
                idx = rng.integers(0, len(options), n)
            else:
                cum = np.cumsum(spec.weights)
                idx = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(options) - 1)
            attrs.set_node_column(key, {v: options[i] for v, i in enumerate(idx.tolist())})

    edges = list(graph.edges()) if d.edge_parameters else []
    for key, spec in d.edge_parameters.items():
        column: dict[tuple[int, int], Any] = {}
        if isinstance(spec, NumericalParam):
            values = rng.uniform(spec.low, spec.high, len(edges))
            for (u, v), val in zip(edges, values.tolist()):
                column[(u, v)] = val
                if not graph.directed:
                    column[(v, u)] = val
        else:
            options = list(spec.options)
            if spec.weights is None:
                idx = rng.integers(0, len(options), len(edges))
            else:
                cum = np.cumsum(spec.weights)
                idx = np.minimum(np.searchsorted(cum, rng.random(len(edges)), side="right"), len(options) - 1)
            for (u, v), i in zip(edges, idx.tolist()):
                column[(u, v)] = options[i]
                if not graph.directed:
                    column[(v, u)] = options[i]
        attrs.set_edge_column(key, column)

    return states, attrs, dict(d.network_parameters)

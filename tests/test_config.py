"""YAML config parsing, validation, sweep expansion, and population setup."""

from __future__ import annotations

import copy
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdkit import (
    ConfigError,
    Graph,
    GraphError,
    build_graph,
    build_rules,
    expand_sweep,
    fixture_path,
    initialize_population,
    load_config,
    parse_config,
    read_snapshot,
    serialize_config,
    top_k_by_metric,
    validate,
    write_edge_list,
    write_gexf,
    write_snapshot,
)
from crowdkit.config import sweep_assignments, sweep_labels, to_mapping
from crowdkit.rules import CountDown, NodeStochastic


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


MINIMAL = """
name: tiny
structure:
  random:
    type: random-regular
    count: 10
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 1.0
"""


def minimal_with(extra_definitions: str = "", sweep: str = "") -> str:
    doc = MINIMAL
    if extra_definitions:
        doc += extra_definitions
    if sweep:
        doc += sweep
    return doc


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParse:
    def test_sir_fixture_parses(self):
        cfg = load_config(fixture_path("sir.yaml"))
        assert cfg.name == "sir-epidemic"
        assert cfg.structure.generator == "random-regular"
        assert cfg.structure.count == 100
        assert cfg.structure.degree == 4
        d = cfg.definitions
        assert list(d.nodetypes) == ["Susceptible", "Infected", "Recovered"]
        weights = [d.nodetypes[t].weight for t in d.nodetypes]
        assert weights == [0.9, 0.1, 0.0]
        assert len(d.compartments) == 2
        assert len(d.rules) == 2

    def test_all_fixtures_parse_and_validate(self):
        for name in ["sir.yaml", "infmax.yaml", "trust.yaml", "stayhome.yaml"]:
            cfg = load_config(fixture_path(name))
            assert validate(cfg) == []

    def test_unknown_root_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\nbogus: 1\n")
        assert "bogus" in str(exc.value)

    def test_unknown_generator(self):
        doc = MINIMAL.replace("type: random-regular", "type: random-irregular")
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert "random-irregular" in str(exc.value)

    def test_unknown_nested_key_reports_dotted_path(self):
        doc = MINIMAL.replace("degree: 2", "degree: 2\n    wat: 3")
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        msg = str(exc.value)
        assert "wat" in msg
        assert "structure" in msg

    def test_wrong_value_kind(self):
        doc = MINIMAL.replace("count: 10", "count: ten")
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_invalid_yaml_syntax(self):
        with pytest.raises(ConfigError):
            parse_config("name: [unclosed")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_empty_sweep_list_rejected(self):
        doc = minimal_with(sweep="sweep:\n  definitions.network-parameters.x: []\n")
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_both_structure_sources_rejected(self):
        doc = MINIMAL.replace(
            "structure:\n  random:",
            "structure:\n  file:\n    path: x.txt\n    format: edge-list\n  random:",
        )
        with pytest.raises(ConfigError):
            parse_config(doc)


# ---------------------------------------------------------------------------
# Serialization round-trip
# ---------------------------------------------------------------------------


class TestSerialize:
    @pytest.mark.parametrize(
        "fixture", ["sir.yaml", "infmax.yaml", "trust.yaml", "stayhome.yaml"]
    )
    def test_parse_serialize_identity(self, fixture):
        cfg = load_config(fixture_path(fixture))
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg

    def test_serialize_without_sweep(self):
        cfg = load_config(fixture_path("trust.yaml"))
        assert cfg.sweep is not None
        text = serialize_config(cfg, include_sweep=False)
        again = parse_config(text)
        assert again.sweep is None
        assert again.definitions == cfg.definitions


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class TestValidate:
    def test_weights_must_sum_to_one(self):
        doc = MINIMAL.replace("initial-weight: 1.0", "initial-weight: 0.8")
        violations = validate(parse_config(doc))
        assert any("sum" in v for v in violations)

    def test_exact_counts_against_hint(self):
        cfg = load_config(fixture_path("infmax.yaml"))
        assert validate(cfg, node_count_hint=4039) == []
        bad = validate(cfg, node_count_hint=4000)
        assert bad

    def test_dangling_compartment_reference(self):
        doc = minimal_with(
            extra_definitions="""
    compartments:
      c1:
        type: node-stochastic
        ratio: 0.5
    rules:
      r1: [A, A2, c9]
"""
        )
        doc = doc.replace("name: custom", "name: diffusion")
        doc = doc.replace(
            "          initial-weight: 1.0\n",
            "          initial-weight: 1.0\n      A2:\n        random-with-weight:\n          initial-weight: 0.0\n",
        )
        violations = validate(parse_config(doc))
        assert any("c9" in v for v in violations)

    def test_ratio_out_of_bounds(self):
        doc = minimal_with(
            extra_definitions="""
    compartments:
      c1:
        type: node-stochastic
        ratio: 1.5
"""
        ).replace("name: custom", "name: diffusion")
        violations = validate(parse_config(doc))
        assert violations

    def test_numerical_low_above_high(self):
        doc = minimal_with(
            extra_definitions="""
    node-parameters:
      numerical:
        age: [50, 10]
"""
        )
        violations = validate(parse_config(doc))
        assert violations

    def test_metric_count_exceeding_n(self):
        doc = """
name: x
structure:
  random:
    type: random-regular
    count: 10
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      Top:
        choose_with_metric:
          metric: degree
          count: 50
      Rest:
        random-with-weight:
          initial-weight: 1.0
"""
        violations = validate(parse_config(doc), node_count_hint=10)
        assert violations


# ---------------------------------------------------------------------------
# Sweep expansion
# ---------------------------------------------------------------------------


class TestSweep:
    def test_trust_fixture_expands_to_11(self):
        cfg = load_config(fixture_path("trust.yaml"))
        variants = expand_sweep(cfg)
        assert len(variants) == 11
        values = [v.definitions.network_parameters["r_UT"] for v in variants]
        assert values == pytest.approx([i / 10 for i in range(11)])
        for v in variants:
            assert v.sweep is None

    def test_no_sweep_identity(self):
        cfg = parse_config(MINIMAL)
        variants = expand_sweep(cfg)
        assert len(variants) == 1
        assert variants[0].definitions == cfg.definitions

    def test_one_factor_at_a_time(self):
        doc = minimal_with(
            extra_definitions="""
    network-parameters:
      a: 0
      b: 0
""",
            sweep="""
sweep:
  definitions.network-parameters.a: [1, 2]
  definitions.network-parameters.b: [3]
""",
        )
        cfg = parse_config(doc)
        variants = expand_sweep(cfg)
        assert len(variants) == 3
        combos = [
            (v.definitions.network_parameters["a"], v.definitions.network_parameters["b"])
            for v in variants
        ]
        # each variant changes exactly one factor from base (a=0, b=0)
        assert combos == [(1, 0), (2, 0), (0, 3)]

    def test_expansion_length_is_sum_of_list_lengths(self):
        doc = minimal_with(
            extra_definitions="""
    network-parameters:
      a: 0
      b: 0
""",
            sweep="""
sweep:
  definitions.network-parameters.a: [1, 2, 3]
  definitions.network-parameters.b: [4, 5]
""",
        )
        assert len(expand_sweep(parse_config(doc))) == 5

    def test_unresolvable_path_errors(self):
        doc = minimal_with(sweep="sweep:\n  definitions.no-such.key: [1]\n")
        cfg = parse_config(doc)
        with pytest.raises(ConfigError):
            expand_sweep(cfg)

    def test_labels_use_last_path_segment(self):
        cfg = load_config(fixture_path("trust.yaml"))
        labels = sweep_labels(cfg)
        assert labels[0] == "r_UT=0.0"
        assert labels[-1] == "r_UT=1.0"
        assert len(labels) == len(set(labels)) == 11

    def test_assignments_align_with_labels(self):
        cfg = load_config(fixture_path("trust.yaml"))
        pairs = sweep_assignments(cfg)
        assert len(pairs) == 11
        assert pairs[0] == ("definitions.network-parameters.r_UT", 0.0)

    @staticmethod
    def swept(values: str):
        extra = "    network-parameters:\n      x: 0\n"
        return parse_config(minimal_with(extra, sweep=f"sweep:\n  definitions.network-parameters.x: {values}\n"))

    def test_repeated_label_is_a_violation(self):
        assert validate(self.swept("[1, 2, 1]")) == [
            "sweep.definitions.network-parameters.x: label 'x=1' repeats; two variants would share one directory"
        ]

    def test_label_with_a_path_separator_is_a_violation(self):
        assert validate(self.swept('[a, "b/c"]')) == [
            "sweep.definitions.network-parameters.x: label 'x=b/c' is not a plain directory name"
        ]


# ---------------------------------------------------------------------------
# Graph construction from config
# ---------------------------------------------------------------------------


class TestBuildGraph:
    def test_random_regular(self):
        cfg = parse_config(MINIMAL)
        g = build_graph(cfg, make_rng(0))
        assert g.num_nodes == 10
        assert all(g.degree(v) == 2 for v in range(10))

    def test_barabasi_albert(self):
        doc = MINIMAL.replace(
            "type: random-regular\n    count: 10\n    degree: 2",
            "type: barabasi-albert\n    count: 20\n    m: 2",
        )
        g = build_graph(parse_config(doc), make_rng(0))
        assert g.num_nodes == 20
        assert g.num_edges == 2 * 18 + 1

    def test_barabasi_albert_m_below_one_is_rejected(self):
        doc = MINIMAL.replace(
            "type: random-regular\n    count: 10\n    degree: 2",
            "type: barabasi-albert\n    count: 20\n    m: 0",
        )
        cfg = parse_config(doc)
        assert validate(cfg) == ["structure.random.m: m must be >= 1, got 0"]
        with pytest.raises(GraphError, match="m must be >= 1, got 0"):
            build_graph(cfg, make_rng(0))

    def test_erdos_renyi(self):
        doc = MINIMAL.replace(
            "type: random-regular\n    count: 10\n    degree: 2",
            "type: erdos-renyi\n    count: 10\n    p: 1.0",
        )
        g = build_graph(parse_config(doc), make_rng(0))
        assert g.num_edges == 45

    def test_from_edge_list_relative_to_base_dir(self, tmp_path):
        g0 = Graph(4)
        g0.add_edge(0, 1)
        g0.add_edge(2, 3)
        write_edge_list(g0, tmp_path / "net.txt")
        doc = """
name: filecfg
structure:
  file:
    path: net.txt
    format: edge-list
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 1.0
"""
        g = build_graph(parse_config(doc), make_rng(0), base_dir=tmp_path)
        assert g.num_nodes == 4
        assert g.num_edges == 2

    def test_from_gexf_file(self, tmp_path):
        g0 = Graph(5, directed=True)
        for u, v in ((0, 1), (1, 2), (3, 1), (1, 0)):
            g0.add_edge(u, v)
        write_gexf(g0, tmp_path / "net.gexf")
        doc = """
name: filecfg
structure:
  file:
    path: net.gexf
    format: gexf
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 1.0
"""
        assert build_graph(parse_config(doc), make_rng(0), base_dir=tmp_path) == g0

    def test_missing_structure_file(self, tmp_path):
        doc = """
name: filecfg
structure:
  file:
    path: absent.txt
    format: edge-list
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 1.0
"""
        with pytest.raises(ConfigError):
            build_graph(parse_config(doc), make_rng(0), base_dir=tmp_path)

    def test_same_seed_same_graph(self):
        cfg = parse_config(MINIMAL)
        g1 = build_graph(cfg, make_rng(99))
        g2 = build_graph(cfg, make_rng(99))
        assert sorted(g1.edges()) == sorted(g2.edges())


# ---------------------------------------------------------------------------
# Population initialization
# ---------------------------------------------------------------------------


class TestInitializePopulation:
    def test_weighted_draw_within_binomial_3_sigma(self):
        cfg = load_config(fixture_path("sir.yaml"))
        g = build_graph(cfg, make_rng(1))
        states, _, _ = initialize_population(g, cfg, make_rng(2))
        counts = Counter(states.values())
        assert sum(counts.values()) == 100
        sigma = math.sqrt(100 * 0.1 * 0.9)
        assert abs(counts["Infected"] - 10) <= 3 * sigma
        assert counts["Recovered"] == 0  # weight 0 never drawn

    def test_exact_counts_partition(self):
        doc = """
name: counted
structure:
  random:
    type: random-regular
    count: 10
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      X:
        random-with-count:
          count: 7
      Y:
        random-with-count:
          count: 3
"""
        cfg = parse_config(doc)
        g = build_graph(cfg, make_rng(3))
        for seed in range(10):
            states, _, _ = initialize_population(g, cfg, make_rng(seed))
            counts = Counter(states.values())
            assert counts == {"X": 7, "Y": 3}

    def test_metric_seeding_matches_top_k(self):
        doc = """
name: seeded
structure:
  random:
    type: barabasi-albert
    count: 50
    m: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      Seed:
        choose_with_metric:
          metric: pagerank
          count: 5
      Rest:
        random-with-count:
          count: 45
"""
        cfg = parse_config(doc)
        g = build_graph(cfg, make_rng(4))
        states, _, _ = initialize_population(g, cfg, make_rng(5))
        expected = set(top_k_by_metric(g, "pagerank", 5))
        chosen = {v for v, t in states.items() if t == "Seed"}
        assert chosen == expected

    def test_from_file_ids(self, tmp_path):
        ids_file = tmp_path / "seeds.txt"
        ids_file.write_text("# seeds\n\n0\n  \n3\n")  # comment and blank lines are skipped
        doc = """
name: fromfile
structure:
  random:
    type: random-regular
    count: 6
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      Chosen:
        from-file:
          path: seeds.txt
      Rest:
        random-with-count:
          count: 4
"""
        cfg = parse_config(doc)
        g = build_graph(cfg, make_rng(6))
        states, _, _ = initialize_population(g, cfg, make_rng(7), base_dir=tmp_path)
        assert {v for v, t in states.items() if t == "Chosen"} == {0, 3}

    def test_from_file_id_out_of_range(self, tmp_path):
        ids_file = tmp_path / "seeds.txt"
        ids_file.write_text("99\n")
        doc = """
name: fromfile
structure:
  random:
    type: random-regular
    count: 6
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      Chosen:
        from-file:
          path: seeds.txt
      Rest:
        random-with-count:
          count: 5
"""
        cfg = parse_config(doc)
        g = build_graph(cfg, make_rng(6))
        with pytest.raises(ConfigError):
            initialize_population(g, cfg, make_rng(7), base_dir=tmp_path)

    @pytest.mark.parametrize(
        "ids, rest, message",
        [
            (None, "count: 4", "node id file not found"),
            ("0\n3\n0\n", "count: 4", "node 0 assigned twice"),
            ("0\nthree\n", "count: 4", "line 2: expected a node id, got 'three'"),
            ("0\n3\n", "count: 3", "type counts sum to 3, but 4 nodes remain unassigned"),
            ("0\n3\n", None, "4 nodes left unassigned"),
        ],
    )
    def test_from_file_errors(self, tmp_path, ids, rest, message):
        if ids is not None:
            (tmp_path / "seeds.txt").write_text(ids)
        doc = """
name: fromfile
structure:
  random:
    type: random-regular
    count: 6
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      Chosen:
        from-file:
          path: seeds.txt
"""
        if rest is not None:
            doc += f"      Rest:\n        random-with-count:\n          {rest}\n"
        cfg = parse_config(doc)
        g = build_graph(cfg, make_rng(6))
        with pytest.raises(ConfigError, match=message):
            initialize_population(g, cfg, make_rng(7), base_dir=tmp_path)

    def test_numerical_params_within_range(self):
        cfg = load_config(fixture_path("sir.yaml"))
        g = build_graph(cfg, make_rng(8))
        _, attrs, _ = initialize_population(g, cfg, make_rng(9))
        ages = [attrs.get_node(v, "age") for v in range(100)]
        assert all(a is not None and 0 <= a <= 100 for a in ages)

    def test_categorical_params_uniform_options(self):
        doc = MINIMAL + """
    node-parameters:
      categorical:
        location:
          options: [home, grid]
"""
        cfg = parse_config(doc)
        g = build_graph(cfg, make_rng(10))
        _, attrs, _ = initialize_population(g, cfg, make_rng(11))
        values = {attrs.get_node(v, "location") for v in range(10)}
        assert values <= {"home", "grid"}

    def test_network_parameters_copied(self):
        cfg = load_config(fixture_path("trust.yaml"))
        doc_small = serialize_config(cfg, include_sweep=False).replace(
            "count: 1024", "count: 16"
        )
        cfg_small = parse_config(doc_small)
        g = build_graph(cfg_small, make_rng(12))
        _, _, params = initialize_population(g, cfg_small, make_rng(13))
        assert params["R_T"] == 6.0
        assert params["r_UT"] == 0.5
        assert params["tv"] == 1.0

    def test_deterministic_per_seed(self):
        cfg = load_config(fixture_path("sir.yaml"))
        g = build_graph(cfg, make_rng(14))
        s1, a1, p1 = initialize_population(g, cfg, make_rng(15))
        s2, a2, p2 = initialize_population(g, cfg, make_rng(15))
        assert s1 == s2
        assert a1 == a2
        assert p1 == p2

    def test_every_node_assigned_exactly_one_type(self):
        cfg = load_config(fixture_path("sir.yaml"))
        g = build_graph(cfg, make_rng(16))
        states, _, _ = initialize_population(g, cfg, make_rng(17))
        assert set(states) == set(range(100))


# ---------------------------------------------------------------------------
# Rule construction
# ---------------------------------------------------------------------------


class TestBuildRules:
    def test_sir_rules(self):
        cfg = load_config(fixture_path("sir.yaml"))
        rules = build_rules(cfg.definitions)
        assert len(rules) == 2
        infect, recover = rules
        assert infect.from_type == "Susceptible"
        assert infect.to_type == "Infected"
        assert isinstance(infect.compartment, NodeStochastic)
        assert infect.compartment.ratio == 0.1
        assert infect.compartment.triggering_status == "Infected"
        assert recover.from_type == "Infected"
        assert recover.to_type == "Recovered"
        assert isinstance(recover.compartment, CountDown)
        assert recover.compartment.iteration_count == 4

    def test_custom_model_has_no_rules(self):
        cfg = load_config(fixture_path("infmax.yaml"))
        assert build_rules(cfg.definitions) == []


# ---------------------------------------------------------------------------
# Canonical form: parsing and serializing are inverse
# ---------------------------------------------------------------------------

_names = st.text(alphabet="abcxyz-_", min_size=1, max_size=5)
_numbers = st.integers(-(10**6), 10**6) | st.floats(allow_nan=False)
_scalars = _numbers | _names


def _param_sections(params: dict) -> dict:
    numerical = {k: v for k, v in params.items() if isinstance(v, list)}
    categorical = {k: v for k, v in params.items() if isinstance(v, dict)}
    return {"numerical": numerical, "categorical": categorical}


_inits = st.one_of(
    st.builds(lambda w: {"random-with-weight": {"initial-weight": w}}, _numbers),
    st.builds(lambda c: {"random-with-count": {"count": c}}, st.integers(-5, 5000)),
    st.builds(lambda m, c: {"choose_with_metric": {"metric": m, "count": c}}, _names, st.integers(0, 100)),
    st.builds(lambda p: {"from-file": {"path": p}}, _names),
)
# Integer names are legal YAML keys; they must come back as strings.
_params = st.dictionaries(
    _names | st.integers(0, 99),
    st.lists(_numbers, min_size=2, max_size=2)
    | st.fixed_dictionaries(
        {"options": st.lists(_names, max_size=3)}, optional={"weights": st.lists(_numbers, max_size=3)}
    ),
    max_size=4,
).map(_param_sections)
_compartments = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("node-stochastic"), "ratio": _numbers}, optional={"triggering_status": _names | st.none()}
    ),
    st.fixed_dictionaries({"type": st.just("count-down"), "name": _names, "iteration-count": st.integers(-3, 9)}),
    st.fixed_dictionaries(
        {"type": st.just("node-categorical"), "attribute": _names, "value": _names, "probability": _numbers}
    ),
)
_structures = st.one_of(
    st.builds(lambda c, d: {"random": {"type": "random-regular", "count": c, "degree": d}}, st.integers(0, 99), st.integers()),
    st.builds(lambda c, m: {"random": {"type": "barabasi-albert", "count": c, "m": m}}, st.integers(0, 99), st.integers()),
    st.builds(lambda c, p: {"random": {"type": "erdos-renyi", "count": c, "p": p}}, st.integers(0, 99), _numbers),
    st.fixed_dictionaries(
        {"path": _names, "format": st.sampled_from(["edge-list", "gexf"])}, optional={"directed": st.booleans()}
    ).map(lambda f: {"file": f}),
)
_documents = st.fixed_dictionaries(
    {
        "name": _names,
        "structure": _structures,
        "definitions": st.fixed_dictionaries(
            {
                "name": st.sampled_from(["diffusion", "custom"]),
                "nodetypes": st.dictionaries(_names, _inits, min_size=1, max_size=4),
            },
            optional={
                "node-parameters": _params,
                "edge-parameters": _params,
                "compartments": st.dictionaries(_names, _compartments, max_size=3),
                "rules": st.dictionaries(_names, st.lists(_names, min_size=3, max_size=3), max_size=3),
                "network-parameters": st.dictionaries(_names, _scalars, max_size=3),
            },
        ).map(lambda model: {"pd-model": model}),
    },
    optional={"sweep": st.none() | st.dictionaries(_names, st.lists(_scalars, min_size=1, max_size=3), max_size=3)},
)


@settings(max_examples=300, deadline=None)
@given(doc=_documents)
def test_parse_and_canonical_mapping_are_inverse(doc):
    cfg = parse_config(doc)
    assert parse_config(to_mapping(cfg)) == cfg
    text = serialize_config(cfg)
    assert serialize_config(parse_config(text)) == text


def test_empty_sweep_map_means_no_sweep():
    cfg = parse_config(MINIMAL + "sweep: {}\n")
    assert cfg.sweep is None
    assert cfg == parse_config(MINIMAL + "sweep: null\n")
    assert parse_config(serialize_config(cfg)) == cfg


def test_integer_parameter_names_read_back_from_a_snapshot(tmp_path):
    doc = MINIMAL + """
    node-parameters:
      numerical:
        5: [0, 1]
    edge-parameters:
      categorical:
        7:
          options: [a, b]
"""
    cfg = parse_config(doc)
    assert list(cfg.definitions.node_parameters) == ["5"]
    assert list(cfg.definitions.edge_parameters) == ["7"]
    graph = build_graph(cfg, make_rng(0))
    states, attrs, params = initialize_population(graph, cfg, make_rng(1))
    (path,) = write_snapshot(0, graph, states, attrs, params, tmp_path)
    _, _, _, read_attrs, _ = read_snapshot(path)
    assert read_attrs == attrs


# ---------------------------------------------------------------------------
# Mutation corpus: every single edit of a set of source documents, pinned.
# ---------------------------------------------------------------------------
#
# Each source document is edited in every single way listed in
# ``_mutations``. Each edited document goes through ``parse_config``; what
# comes out (the error text and path, or the canonical YAML, the violations,
# the serialized sweep variants and the sweep labels) is recorded, and the
# sha256 of each source's record must match ``CORPUS_DIGESTS``. A change to
# any error text, error path, canonical YAML byte or sweep expansion fails
# here. To re-pin after an intended change, run this file as a script from
# the repository root and paste what it prints into ``CORPUS_DIGESTS``:
#
#     PYTHONPATH=src python tests/test_config.py

EVERY_KEY = """
name: every-key
structure:
  file:
    path: net.txt
    format: edge-list
    directed: true
definitions:
  pd-model:
    name: diffusion
    nodetypes:
      S:
        random-with-weight:
          initial-weight: 0.5
      I:
        random-with-count:
          count: 3
      Seed:
        choose_with_metric:
          metric: degree
          count: 2
      Picked:
        from-file:
          path: seeds.txt
    node-parameters:
      numerical:
        age: [0, 100]
      categorical:
        location:
          options: [home, grid]
          weights: [0.25, 0.75]
        mood:
          options: [calm, angry]
    edge-parameters:
      numerical:
        strength: [0.5, 1.5]
      categorical:
        kind:
          options: [kin, work]
          weights: [0.5, 0.5]
        tie:
          options: [weak, strong]
    compartments:
      spread:
        type: node-stochastic
        ratio: 0.25
        triggering_status: I
      wander:
        type: node-stochastic
        ratio: 0.5
      timer:
        type: count-down
        name: t
        iteration-count: 3
      home:
        type: node-categorical
        attribute: location
        value: home
        probability: 0.75
    rules:
      infect: [S, I, spread]
      drift: [S, Seed, wander]
      recover: [I, S, timer]
      stay: [S, Picked, home]
    network-parameters:
      alpha: 1.5
      beta: 2
      label: hello
sweep:
  definitions.network-parameters.alpha: [0.5, 1.0]
  definitions.compartments.spread.ratio: [0.1]
  definitions.nodetypes.I.random-with-count.count: [4, 5]
"""

GENERATOR_PARAMS = {"random-regular": "degree: 2", "barabasi-albert": "m: 2", "erdos-renyi": "p: 0.5"}

CORPUS_SOURCES = {
    **{name: fixture_path(name).read_text(encoding="utf-8") for name in ["infmax.yaml", "sir.yaml", "stayhome.yaml", "trust.yaml"]},
    **{
        generator: MINIMAL.replace("type: random-regular", f"type: {generator}").replace("degree: 2", param)
        for generator, param in GENERATOR_PARAMS.items()
    },
    "every-key": EVERY_KEY,
}

REPLACEMENTS = ("x", 7, -1, 0.5, True, None, [1], {"a": 1}, [], {})


def _nodes(node, trail=()):
    """Every (trail, node) of a YAML tree, root first, depth first."""
    yield trail, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, trail + (key,))


def _at(doc, trail):
    for key in trail:
        doc = doc[key]
    return doc


def _mutations(doc):
    """(label, edited copy) for every single edit of ``doc``."""
    for trail, node in _nodes(doc):
        where = ".".join(map(str, trail))
        if isinstance(node, dict):
            for key in list(node):
                edited = copy.deepcopy(doc)
                del _at(edited, trail)[key]
                yield f"delete {where}/{key}", edited
                edited = copy.deepcopy(doc)
                held = _at(edited, trail)
                items = list(held.items())
                held.clear()
                held.update((f"{k}-x" if k == key else k, v) for k, v in items)
                yield f"rename {where}/{key}", edited
            edited = copy.deepcopy(doc)
            _at(edited, trail)["unknown-key"] = 1
            yield f"add key {where}", edited
        if isinstance(node, list):
            edited = copy.deepcopy(doc)
            held = _at(edited, trail)
            held.append(copy.deepcopy(held[-1]) if held else "x")
            yield f"append {where}", edited
            if node:
                edited = copy.deepcopy(doc)
                _at(edited, trail).pop()
                yield f"pop {where}", edited
        for value in REPLACEMENTS:
            if not trail:
                yield f"replace root by {value!r}", copy.deepcopy(value)
                continue
            edited = copy.deepcopy(doc)
            _at(edited, trail[:-1])[trail[-1]] = copy.deepcopy(value)
            yield f"replace {where} by {value!r}", edited


def _attempt(step):
    try:
        return step()
    except ConfigError as exc:
        return ["ConfigError", str(exc), exc.path]
    except Exception as exc:  # recorded, so that a change of behaviour shows
        return [type(exc).__name__, str(exc)]


def _outcome(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        return ["ConfigError", str(exc), exc.path]
    return {
        "yaml": _attempt(lambda: serialize_config(cfg)),
        "yaml_without_sweep": _attempt(lambda: serialize_config(cfg, include_sweep=False)),
        "violations": _attempt(lambda: validate(cfg)),
        "variants": _attempt(lambda: [serialize_config(v) for v in expand_sweep(cfg)]),
        "labels": _attempt(lambda: sweep_labels(cfg)),
    }


def corpus_record(source: str) -> list:
    doc = yaml.safe_load(source)
    return [[label, _outcome(edited)] for label, edited in [("unedited", doc), *_mutations(doc)]]


def corpus_digest(source: str) -> str:
    text = json.dumps(corpus_record(source), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CORPUS_DIGESTS = {
    "barabasi-albert": "e673c0bf86d1bdddec8bb53fb8cc15dee6beedbd98caa2d72a412efa5b831986",
    "erdos-renyi": "253725e735df9e92d7c654345faee8e1a78f2caa0a351762842617ba4a4b6dd2",
    "every-key": "6f245c8ffeb4a89b0a323ab43e2461c4e8e72a56c14d9b50d45e3d5c9aa30063",
    "infmax.yaml": "2defb08c56216f406102ca8c43b33bad5f7d50cba2a1882604805c3dbae74186",
    "random-regular": "c36add8833622826e474031079bbfab039f5eedb054d475b5fe1bf0229f7977b",
    "sir.yaml": "0f2b13ac7d5247b2e3fd95badd08dce4b97c7d954f7cc29b1ef5a85f387f30ee",
    "stayhome.yaml": "40734cd76a6b8d2d30ba2db95f6b362282cf2d51cc0834874ff2be721e3179b0",
    "trust.yaml": "0e187ff50f3ba5bc1c6a916df1447487b526816983151f1c1a306fc8ab505ef3"
}


@pytest.mark.parametrize("name", sorted(CORPUS_SOURCES))
def test_mutation_corpus_matches_stored_digest(name):
    assert corpus_digest(CORPUS_SOURCES[name]) == CORPUS_DIGESTS[name]


if __name__ == "__main__":
    print(json.dumps({name: corpus_digest(CORPUS_SOURCES[name]) for name in sorted(CORPUS_SOURCES)}, indent=4))

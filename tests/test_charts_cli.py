"""Chart rendering and the command-line interface."""

from __future__ import annotations

import errno
import hashlib
import json
import math
import re
import signal
from pathlib import Path

import numpy as np
import pytest
import yaml
import click
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdkit.cli as cli_mod
import crowdkit.engine as engine_mod
from crowdkit import (CollectError, ConfigError, CrowdkitError, EdgeListError, GexfError, HookError, MetricError,
                      SeriesRecorder, batch_run, load_config, load_edge_list, load_gexf, merge_labeled)
from crowdkit.charts import (
    CHART_KINDS,
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_TOP,
    extract_series,
    render_chart,
    render_html,
    write_chart,
)
from crowdkit.cli import main
from crowdkit.collect import RUN_META_FILE
from crowdkit.config import build_graph
from crowdkit.scenarios import SCENARIOS, fixture_path

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


TINY = """
name: tiny
structure:
  random:
    type: random-regular
    count: 6
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 0.5
      B:
        random-with-weight:
          initial-weight: 0.5
    network-parameters:
      pressure: 0.0
"""

SWEEP_TAIL = """
sweep:
  definitions.network-parameters.pressure:
    - 0.1
    - 0.2
    - 0.3
"""


SIR_FIXTURE = fixture_path("sir.yaml").read_text(encoding="utf-8")


def write_tiny(tmp_path: Path, sweep: bool = False) -> Path:
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY + (SWEEP_TAIL if sweep else ""), encoding="utf-8")
    return path


def scalar_doc(name: str, values) -> dict:
    return {
        "name": name,
        "entries": [{"iteration": i, "value": v} for i, v in enumerate(values)],
    }


def write_doc(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Chart series extraction
# ---------------------------------------------------------------------------


class TestExtractSeries:
    def test_scalar_document(self):
        series = extract_series(scalar_doc("temp", [1.0, 2.0, 4.0]))
        assert series == [("temp", [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)])]

    def test_map_document_fans_out_per_key(self):
        doc = {
            "name": "node_counts",
            "entries": [
                {"iteration": 0, "value": {"S": 9, "I": 1}},
                {"iteration": 1, "value": {"S": 8, "I": 2}},
            ],
        }
        series = dict(extract_series(doc))
        assert set(series) == {"S", "I"}
        assert series["S"] == [(0.0, 9.0), (1.0, 8.0)]
        assert series["I"] == [(0.0, 1.0), (1.0, 2.0)]

    def test_labeled_document(self):
        doc = {
            "name": "spread",
            "aggregation": "labeled",
            "series": [
                {"label": "a", "entries": [{"iteration": 0, "value": 1.0}]},
                {"label": "b", "entries": [{"iteration": 0, "value": 2.0}]},
            ],
        }
        series = extract_series(doc)
        assert [label for label, _ in series] == ["a", "b"]

    def test_labeled_map_entries_get_dotted_labels(self):
        doc = {
            "aggregation": "labeled",
            "series": [
                {"label": "run1", "entries": [{"iteration": 0, "value": {"S": 1, "I": 2}}]},
            ],
        }
        labels = [label for label, _ in extract_series(doc)]
        assert labels == ["run1.S", "run1.I"]

    def test_empty_entries_yield_empty_series(self):
        assert extract_series({"name": "x", "entries": []}) == [("x", [])]

    def test_mixed_scalar_and_map_rejected(self):
        doc = {
            "name": "x",
            "entries": [
                {"iteration": 0, "value": 1.0},
                {"iteration": 1, "value": {"S": 1}},
            ],
        }
        with pytest.raises(CollectError):
            extract_series(doc)

    def test_missing_map_key_rejected(self):
        doc = {
            "name": "x",
            "entries": [
                {"iteration": 0, "value": {"S": 1, "I": 2}},
                {"iteration": 1, "value": {"S": 1}},
            ],
        }
        with pytest.raises(CollectError, match="I"):
            extract_series(doc)

    def test_unrecognized_shapes_rejected(self):
        with pytest.raises(CollectError):
            extract_series({"no": "entries"})
        with pytest.raises(CollectError):
            extract_series(["not", "a", "dict"])


def ref_series_from_entries(entries: list[dict], base_label: str) -> list[tuple[str, list[tuple[float, float]]]]:
    """The chart reader's series flattening before it read documents through ``check_collector``."""
    if not entries:
        return [(base_label, [])]
    first = entries[0].get("value")
    if isinstance(first, dict):
        keys = list(first.keys())
        out = []
        for key in keys:
            points = []
            for entry in entries:
                value = entry["value"]
                if not isinstance(value, dict) or key not in value:
                    raise CollectError(f"series {base_label!r}: key {key!r} missing at iteration {entry['iteration']}")
                points.append((float(entry["iteration"]), float(value[key])))
            out.append((key, points))
        return out
    points = []
    for entry in entries:
        value = entry["value"]
        if isinstance(value, dict):
            raise CollectError(f"series {base_label!r}: mixed scalar and map values")
        points.append((float(entry["iteration"]), float(value)))
    return [(base_label, points)]


def ref_extract_series(document: dict) -> list[tuple[str, list[tuple[float, float]]]]:
    if document.get("aggregation") == "labeled":
        out = []
        for series in document.get("series", []):
            for label, points in ref_series_from_entries(series["entries"], str(series["label"])):
                suffix = "" if label == str(series["label"]) else f".{label}"
                out.append((f"{series['label']}{suffix}", points))
        return out
    return ref_series_from_entries(document["entries"], str(document.get("name", "series")))


NAMES = st.sampled_from(["S", "I", "a", "b.c"])  # labels and map keys share names, so a label can equal a key
NUMBERS = st.one_of(st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def recorded(draw, name: str = "x") -> dict:
    """A collector document as a run writes it."""
    recorder, keys = SeriesRecorder(name), draw(st.none() | st.lists(NAMES, unique=True, max_size=3))
    for iteration in sorted(draw(st.sets(st.integers(0, 50), max_size=4))):
        recorder.record(iteration, draw(NUMBERS) if keys is None else {k: draw(NUMBERS) for k in draw(st.permutations(keys))})
    return recorder.as_document()


BREAKS = ["nan", "inf", "bool", "string", "none", "list", "iteration float", "iteration repeats", "extra key",
          "key dropped", "key added", "entries 5", "no name", "series 5", "label 1", "no label"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_extract_series_matches_the_reference_and_refuses_what_no_run_writes(data):
    labeled = data.draw(st.booleans())
    docs = data.draw(st.lists(recorded(), min_size=1, max_size=3))
    document = merge_labeled(docs, data.draw(st.lists(NAMES, min_size=len(docs), max_size=len(docs)))) if labeled else docs[0]
    assert extract_series(document) == ref_extract_series(document)
    broken = json.loads(json.dumps(document))
    series = broken["series"][data.draw(st.integers(0, len(docs) - 1))] if labeled else broken
    entries = series["entries"]
    how = data.draw(st.sampled_from(BREAKS))
    if how in ("nan", "inf", "bool", "string", "none", "list") and entries:
        value = {"nan": math.nan, "inf": -math.inf, "bool": True, "string": "1", "none": None, "list": [1]}[how]
        entry = data.draw(st.sampled_from(entries))
        if isinstance(entry["value"], dict) and entry["value"]:
            entry["value"][data.draw(st.sampled_from(sorted(entry["value"])))] = value
        else:
            entry["value"] = value
    elif how == "iteration float" and entries:
        entries[-1]["iteration"] += 0.5
    elif how == "iteration repeats" and len(entries) > 1:
        entries[-1]["iteration"] = entries[-2]["iteration"]
    elif how == "extra key" and entries:
        entries[0]["note"] = 0
    elif how in ("key dropped", "key added") and len(entries) > 1 and isinstance(entries[0]["value"], dict):
        value = entries[-1]["value"]
        if how == "key added":
            value["new"] = 1
        elif value:
            value.pop(next(iter(value)))
        else:
            return
    elif how == "entries 5":
        series["entries"] = 5
    elif how == "no name" and not labeled:
        del broken["name"]
    elif how == "series 5" and labeled:
        broken["series"] = 5
    elif how in ("label 1", "no label") and labeled:
        series["label"] = 1
        if how == "no label":
            del series["label"]
    else:
        return
    with pytest.raises(CollectError):
        extract_series(broken)


# ---------------------------------------------------------------------------
# Chart rendering
# ---------------------------------------------------------------------------


class TestRenderChart:
    def test_each_kind_draws_its_mark(self):
        series = [("s", [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)])]
        assert "<polyline" in render_chart(series, "line")
        assert "<polygon" in render_chart(series, "area")
        assert "<circle" in render_chart(series, "scatter")
        bar = render_chart(series, "bar")
        line = render_chart(series, "line")
        assert bar.count("<rect") > line.count("<rect")

    def test_unknown_kind_rejected(self):
        with pytest.raises(CollectError, match="kind"):
            render_chart([("s", [(0.0, 1.0)])], "pie")

    def test_empty_series_still_renders_axes(self):
        svg = render_chart([("ghost", [])], "line")
        assert svg.startswith("<svg")
        assert "<polyline" not in svg
        assert "ghost" in svg  # legend still names the series
        assert "iteration" in svg

    def test_legend_lists_every_series(self):
        series = [(name, [(0.0, 1.0)]) for name in ("alpha", "beta", "gamma")]
        svg = render_chart(series, "scatter")
        for name in ("alpha", "beta", "gamma"):
            assert name in svg

    def test_title_escaped(self):
        svg = render_chart([("s", [(0.0, 1.0)])], "line", title="a < b & c")
        assert "a &lt; b &amp; c" in svg

    @pytest.mark.parametrize("kind", ["bar", "area"])
    def test_all_negative_values_draw_their_marks_inside_the_plot(self, kind):
        svg = render_chart([("s", [(0.0, -5.0), (1.0, -3.0), (2.0, -4.0)])], kind)
        bars = re.findall(r'<rect x="[^"]*" y="([^"]*)" width="[^"]*" height="([^"]*)"', svg)
        ys = [float(y) + dy for y, height in bars for dy in (0.0, float(height))]
        ys += [float(point.split(",")[1]) for points in re.findall(r'<polygon points="([^"]*)"', svg)
               for point in points.split()]
        assert len(ys) > 2 and all(MARGIN_TOP <= y <= HEIGHT - MARGIN_BOTTOM for y in ys), ys

    # One input per layout path: fractional values, an empty series, a single point, a palette that wraps, a
    # value that _fmt writes with %.6g, a value range that crosses 0 and a title that needs escaping.
    DIGEST_CASES = [
        ([("a", [(0.0, 0.25), (1.0, 0.5), (2.0, 0.125)]), ("b", [(0.0, 1 / 3), (1.5, 2 / 3), (3.0, 0.1)])], ""),
        ([("ghost", [])], ""),
        ([("one", [(4.0, 7.0)])], "single"),
        ([(f"s{i}", [(0.0, float(i)), (1.0, i + 0.5)]) for i in range(12)], "twelve"),
        ([("big", [(0.0, 1.0), (1.0, 1e16)])], ""),
        ([("mixed", [(0.0, -2.5), (1.0, 3.0), (2.0, -0.75), (3.0, 1.25)])], "mixed"),
        ([("t", [(0.0, 1.0), (1.0, 2.0)])], "t < & >"),
    ]
    DIGESTS = {
        "line": "66d722f10b59a4b45275b29283f6f5babd0739b49933cad36cfebd89cb1c8325",
        "bar": "165d5d175212e080610e8b80d7b748be0b1445fc26a1caaf18b0a6b97143e610",
        "area": "553312f6f603855b2ec7f181c40b802fe839a6b2377c69e2e7d9304e588b4fbc",
        "scatter": "de991dea2796d451c13d1e09c1545acf256a264a5d4aaa19877d389af484ce1c",
    }

    @pytest.mark.parametrize("kind", CHART_KINDS)
    def test_chart_bytes_match_stored_digests(self, kind):
        digest = hashlib.sha256()
        for series, title in self.DIGEST_CASES:
            svg = render_chart(series, kind, title=title)
            digest.update(svg.encode("utf-8"))
            digest.update(render_html(svg, title).encode("utf-8"))
        assert digest.hexdigest() == self.DIGESTS[kind]


class TestWriteChart:
    def test_svg_and_html_by_extension(self, tmp_path):
        doc = write_doc(tmp_path / "t.json", scalar_doc("t", [1.0, 2.0]))
        svg_path = write_chart([doc], "line", tmp_path / "chart.svg")
        html_path = write_chart([doc], "line", tmp_path / "chart.html")
        assert svg_path.read_text().startswith("<svg")
        html = html_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html

    def test_byte_deterministic(self, tmp_path):
        doc = write_doc(tmp_path / "t.json", scalar_doc("t", [3.0, 1.0, 2.0]))
        a = write_chart([doc], "area", tmp_path / "a.svg")
        first = a.read_bytes()
        again = write_chart([doc], "area", tmp_path / "a.svg")
        assert again.read_bytes() == first

    def test_missing_input_rejected(self, tmp_path):
        with pytest.raises(CollectError, match="no such chart input"):
            write_chart([tmp_path / "absent.json"], "line", tmp_path / "o.svg")

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(CollectError, match="invalid JSON"):
            write_chart([bad], "line", tmp_path / "o.svg")

    def test_multiple_inputs_combine(self, tmp_path):
        d1 = write_doc(tmp_path / "a.json", scalar_doc("a", [1.0]))
        d2 = write_doc(tmp_path / "b.json", scalar_doc("b", [2.0]))
        out = write_chart([d1, d2], "scatter", tmp_path / "o.svg")
        svg = out.read_text()
        assert "a" in svg and "b" in svg

    def test_failed_rewrite_keeps_previous_chart_and_leaves_no_temp(self, tmp_path, monkeypatch):
        doc = write_doc(tmp_path / "t.json", scalar_doc("t", [1.0, 2.0]))
        out = write_chart([doc], "line", tmp_path / "charts" / "c.svg")
        before = out.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr("os.replace", failing_replace)
        with pytest.raises(OSError):
            write_chart([doc], "bar", out)
        assert out.read_bytes() == before
        assert [p.name for p in out.parent.iterdir()] == ["c.svg"]

    def test_kinds_constant_matches_cli_choices(self):
        assert set(CHART_KINDS) == {"line", "bar", "area", "scatter"}


# ---------------------------------------------------------------------------
# CLI: projects
# ---------------------------------------------------------------------------


class TestProjectCommands:
    def test_new_then_list(self, project_home):
        res = invoke("project-new", "demo")
        assert res.exit_code == 0
        assert (project_home / "demo").is_dir()
        assert res.output.strip().endswith("demo")
        listing = invoke("project-list")
        assert listing.exit_code == 0
        assert "demo" in listing.output

    def test_duplicate_project_is_usage_error(self, project_home):
        assert invoke("project-new", "demo").exit_code == 0
        res = invoke("project-new", "demo")
        assert res.exit_code == 2
        assert "demo" in res.output

    def test_empty_listing_mentions_root(self, project_home):
        res = invoke("project-list")
        assert res.exit_code == 0
        assert str(project_home) in res.output

    def test_version_flag(self):
        res = invoke("--version")
        assert res.exit_code == 0
        assert "0.1.0" in res.output


# ---------------------------------------------------------------------------
# CLI: run
# ---------------------------------------------------------------------------


def run_tiny(tmp_path, project_home, *extra) -> Path:
    """Run the tiny config and return the batch-0 directory."""
    cfg = write_tiny(tmp_path)
    res = invoke("run", "--config", cfg, "--epochs", 5, *extra)
    assert res.exit_code == 0, res.output
    lines = [line for line in res.output.splitlines() if line.strip()]
    return Path(lines[0])


class TestRunCommand:
    def test_scenario_fixture_run_writes_snapshots(self, project_home):
        res = invoke("run", "--scenario", "sir", "--epochs", 10, "--snapshot", 1,
                     "--seed", 4)
        assert res.exit_code == 0, res.output
        run_dir = Path(res.output.strip().splitlines()[-1])
        assert run_dir.name == "batch-0"
        snaps = sorted((run_dir / "snapshots").glob("iter_*.json"))
        assert len(snaps) == 11
        assert (run_dir / "collectors" / "percentage_infected.json").is_file()

    def test_batches_create_one_directory_each(self, tmp_path, project_home):
        cfg = write_tiny(tmp_path)
        res = invoke("run", "--config", cfg, "--epochs", 3, "--batches", 3)
        assert res.exit_code == 0
        dirs = [Path(line) for line in res.output.splitlines() if line.strip()]
        assert [d.name for d in dirs] == ["batch-0", "batch-1", "batch-2"]
        assert all(d.is_dir() for d in dirs)
        assert dirs[0].parent == dirs[1].parent

    def test_repeat_run_gets_suffixed_directory(self, tmp_path, project_home):
        first = run_tiny(tmp_path, project_home)
        second = run_tiny(tmp_path, project_home)
        assert first.parent.name == "tiny"
        assert second.parent.name == "tiny-2"

    def test_missing_config_is_usage_error(self, project_home):
        res = invoke("run", "--config", "/nope/absent.yaml")
        assert res.exit_code == 2
        assert "absent.yaml" in res.output

    def test_no_config_no_scenario_is_usage_error(self, project_home):
        res = invoke("run")
        assert res.exit_code == 2
        assert "--config" in res.output

    def test_bad_epochs_is_usage_error(self, tmp_path, project_home):
        # run and sweep share these flags and their checks; nothing is created
        bad_flags = [("--epochs", 0), ("--batches", 0), ("--snapshot", 0),
                     ("--epochs", 5, "--snapshot", 9)]
        for command in ("run", "sweep"):
            cfg = write_tiny(tmp_path, sweep=command == "sweep")
            for flags in bad_flags:
                res = invoke(command, "--config", cfg, *flags)
                assert res.exit_code == 2, (command, flags, res.output)
                assert not list((project_home / "default").glob("tiny*")), (command, flags)

    def test_invalid_config_lists_violations(self, tmp_path, project_home):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(TINY.replace("initial-weight: 0.5", "initial-weight: 0.4", 1),
                       encoding="utf-8")
        res = invoke("run", "--config", cfg)
        assert res.exit_code == 2
        assert "invalid config" in res.output

    @pytest.mark.parametrize(
        "text, edit, violation",
        [
            (TINY + SWEEP_TAIL, ("- 0.3", "- 0.1"), "label 'pressure=0.1' repeats"),
            (TINY + SWEEP_TAIL, ("- 0.3", '- "b/c"'), "label 'pressure=b/c' is not a plain directory name"),
            (TINY + SWEEP_TAIL, ("type: random-regular\n    count: 6\n    degree: 2",
                                 "type: barabasi-albert\n    count: 6\n    m: 0"), "m must be >= 1, got 0"),
            # one bad variant among good ones: its line carries its label, and no variant runs
            (SIR_FIXTURE + "sweep:\n  definitions.nodetypes.Infected.random-with-weight.initial-weight: [0.1, 0.5]\n",
             ("", ""), "[initial-weight=0.5] definitions.pd-model.nodetypes: initial weights sum to 1.4"),
            (SIR_FIXTURE + "sweep:\n  definitions.compartments.infection.ratio: [0.2, 1.5]\n", ("", ""),
             "[ratio=1.5] definitions.pd-model.compartments.infection: ratio must be in [0, 1], got 1.5"),
        ],
        ids=["edit0", "edit1", "edit2", "variant-weights", "variant-ratio"],
    )
    def test_sweep_config_violations_exit_2_before_any_directory(self, tmp_path, project_home, text, edit, violation):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(text.replace(*edit), encoding="utf-8")
        res = invoke("sweep", "--config", cfg)
        assert res.exit_code == 2, res.output
        assert res.output.startswith("invalid config:\n")
        assert any(violation in line for line in res.output.splitlines()), res.output
        assert list(project_home.iterdir()) == []

    @pytest.mark.parametrize(
        "structure",
        ["random-regular\n    count: 5\n    degree: 3", "random-regular\n    count: 100\n    degree: 100",
         "erdos-renyi\n    count: 6\n    p: 1.5", "barabasi-albert\n    count: 6\n    m: 7"],
        ids=["odd-stubs", "degree-not-below-count", "p-above-1", "m-above-count"],
    )
    def test_impossible_random_structure_exits_2_before_any_directory(self, tmp_path, project_home, structure):
        cfg = write_tiny(tmp_path)
        cfg.write_text(TINY.replace("random-regular\n    count: 6\n    degree: 2", structure), encoding="utf-8")
        res = invoke("run", "--config", cfg)
        assert res.exit_code == 2, res.output
        assert res.output.startswith("invalid config:\n  - structure.random.")
        assert list(project_home.iterdir()) == []

    @pytest.mark.parametrize(
        "where, name",
        [(where, name) for where in ("project-new", "--project", "--name", "config name")
         for name in ("..", ".", "../x", "a/b", "")] + [("config name", "a\0b")],  # no NUL fits in an argument
    )
    def test_names_that_are_not_plain_exit_2_writing_nothing(self, tmp_path, where, name):
        home = tmp_path / "home"
        cfg = tmp_path / "in" / "tiny.yaml"
        cfg.parent.mkdir()
        cfg.write_text(TINY.replace("name: tiny", f"name: {json.dumps(name)}" if where == "config name" else "name: tiny"),
                       encoding="utf-8")
        args = {"project-new": ["project-new", name], "--project": ["run", "--config", cfg, "--project", name],
                "--name": ["run", "--config", cfg, "--name", name], "config name": ["run", "--config", cfg]}[where]
        res = invoke(*args, "--home", home)
        assert res.exit_code == 2, res.output
        assert res.output.count("error:") == 1 and res.output.startswith("error: ")
        assert "is not a plain directory name" in res.output
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["in", "in/tiny.yaml"]

    def test_hook_failure_exits_runtime_code(self, tmp_path, project_home):
        # stay-home hooks on a config with no location attribute
        cfg = write_tiny(tmp_path)
        res = invoke("run", "--config", cfg, "--scenario", "stayhome", "--epochs", 2)
        assert res.exit_code == 3
        assert "FAILED" in res.output
        assert "location" in res.output


# ---------------------------------------------------------------------------
# CLI: sweep
# ---------------------------------------------------------------------------


class TestSweepCommand:
    def test_sweep_runs_every_variant(self, tmp_path, project_home):
        cfg = write_tiny(tmp_path, sweep=True)
        res = invoke("sweep", "--config", cfg, "--epochs", 3, "--batches", 2)
        assert res.exit_code == 0, res.output
        for label in ("pressure=0.1", "pressure=0.2", "pressure=0.3"):
            assert f"[{label}]" in res.output
            variant = project_home / "default" / "tiny" / label
            assert (variant / "batch-0").is_dir()
            assert (variant / "batch-1").is_dir()

    def test_failed_batches_are_reported_and_later_variants_still_run(self, tmp_path, project_home):
        # stay-home hooks on a sweep config with no location attribute: every batch of every variant fails
        cfg = write_tiny(tmp_path, sweep=True)
        res = invoke("sweep", "--config", cfg, "--scenario", "stayhome", "--epochs", 2, "--batches", 2)
        assert res.exit_code == 3, res.output
        want = []
        for label in ("pressure=0.1", "pressure=0.2", "pressure=0.3"):
            want += [f"[{label}]"] + [f"batch {k} FAILED: HookError: hook new_case_fraction (" for k in (0, 1)]
            for k in (0, 1):
                meta = json.loads((project_home / "default" / "tiny" / label / f"batch-{k}" / RUN_META_FILE).read_text())
                assert "has no 'location' attribute" in meta["error"]
        lines = res.output.splitlines()
        assert len(lines) == len(want) and all(line.startswith(start) for line, start in zip(lines, want)), lines

    def test_sweep_without_section_is_usage_error(self, tmp_path, project_home):
        cfg = write_tiny(tmp_path)
        res = invoke("sweep", "--config", cfg)
        assert res.exit_code == 2
        assert "sweep" in res.output


# ---------------------------------------------------------------------------
# CLI: a structure file is read once per command
# ---------------------------------------------------------------------------


def write_edge_list(path: Path, seed: int, nodes: int = 120, edges: int = 400) -> Path:
    """A connected random edge list: a random spanning tree, then random extra edges."""
    rng = np.random.default_rng(seed)
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, nodes)]
    seen = {(v, u) for u, v in pairs}
    while len(pairs) < edges:
        u, v = sorted(rng.integers(0, nodes, 2).tolist())
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs), encoding="utf-8")
    return path


def write_infmax(tmp_path: Path, sweep: dict | None = None) -> Path:
    """The infmax fixture on a 120-node, 400-edge ``edges.txt`` with 5 PageRank seeds."""
    write_edge_list(tmp_path / "edges.txt", seed=0)
    mapping = yaml.safe_load(fixture_path("infmax.yaml").read_text(encoding="utf-8"))
    mapping["structure"]["file"]["path"] = "edges.txt"
    nodetypes = mapping["definitions"]["pd-model"]["nodetypes"]
    nodetypes["Active_Spreader"]["choose_with_metric"]["count"] = 5
    nodetypes["Inactive"]["random-with-count"]["count"] = 115
    mapping["definitions"]["pd-model"]["network-parameters"] = {"pressure": 0.0}
    if sweep:
        mapping["sweep"] = sweep
    path = tmp_path / "infmax.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False), encoding="utf-8")
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but run-meta.json (which holds timings), by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != RUN_META_FILE
    }


@pytest.fixture
def count_graph_builds(monkeypatch):
    """Count ``build_graph`` calls made by the CLI and by the engine."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].structure)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "build_graph", counted)
    monkeypatch.setattr(engine_mod, "build_graph", counted)
    return calls


def test_run_with_the_cli_graph_writes_the_bytes_of_loading_the_file_per_batch(tmp_path, project_home):
    cfg = write_infmax(tmp_path)
    res = invoke("run", "--config", cfg, "--scenario", "infmax", "--epochs", 3, "--snapshot", 1, "--batches", 3)
    assert res.exit_code == 0, res.output
    sim_dir = Path(res.output.splitlines()[0]).parent
    reference = batch_run(
        load_config(cfg),
        tmp_path / "reference",
        batches=3,
        epochs=3,
        snapshot_period=1,
        master_seed=0,
        registry_factory=SCENARIOS["infmax"].make_hooks,
        base_dir=cfg.parent,
    )
    assert all(outcome.error is None for outcome in reference)
    written = tree_bytes(sim_dir)
    assert written == tree_bytes(tmp_path / "reference")
    assert len([name for name in written if "snapshots" in name]) == 3 * 4


def test_a_structure_file_is_read_once_per_run_and_per_sweep(tmp_path, project_home, count_graph_builds):
    cfg = write_infmax(tmp_path, sweep={"definitions.network-parameters.pressure": [0.1, 0.2]})
    res = invoke("run", "--config", cfg, "--scenario", "infmax", "--epochs", 2, "--batches", 3)
    assert res.exit_code == 0, res.output
    assert len(count_graph_builds) == 1
    res = invoke("sweep", "--config", cfg, "--scenario", "infmax", "--epochs", 2, "--batches", 2)
    assert res.exit_code == 0, res.output
    assert "[pressure=0.1]" in res.output and "[pressure=0.2]" in res.output
    assert len(count_graph_builds) == 2


STRUCTURE_FAULTS = {
    "bad edge-list line": ("edge-list", "0 1\n1 2 # x\n", "line 2: expected 2 fields"),
    "missing file": ("edge-list", None, "structure file not found"),
    "malformed gexf": ("gexf", "<gexf><graph>", "malformed XML"),
    "counts do not match": ("edge-list", "0 1\n1 2\n", "type counts sum to 120, expected node count 3"),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("fault", sorted(STRUCTURE_FAULTS))
def test_a_bad_structure_file_exits_2_before_anything_is_written(tmp_path, project_home, command, fault):
    fmt, text, message = STRUCTURE_FAULTS[fault]
    cfg = write_infmax(tmp_path, sweep={"definitions.network-parameters.pressure": [0.1, 0.2]})
    mapping = yaml.safe_load(cfg.read_text(encoding="utf-8"))
    structure = tmp_path / "structure.txt"
    if text is not None:
        structure.write_text(text, encoding="utf-8")
    mapping["structure"]["file"] = {"path": structure.name, "format": fmt}
    cfg.write_text(yaml.safe_dump(mapping, sort_keys=False), encoding="utf-8")
    res = invoke(command, "--config", cfg, "--scenario", "infmax", "--epochs", 2, "--batches", 2)
    assert res.exit_code == 2, res.output
    assert message in res.output
    if fault == "counts do not match":
        assert res.output.startswith("invalid config:\n")
    else:
        [line] = res.output.splitlines()
        assert line.startswith("error: ") and str(structure) in line
    assert not list(project_home.iterdir())


def test_a_sweep_over_the_structure_file_runs_each_variant_on_its_own_file(tmp_path, project_home, count_graph_builds):
    cfg = write_infmax(tmp_path, sweep={"structure.file.path": ["edges.txt", "other.txt"]})
    write_edge_list(tmp_path / "other.txt", seed=1)
    res = invoke("sweep", "--config", cfg, "--scenario", "infmax", "--epochs", 1, "--snapshot", 1)
    assert res.exit_code == 0, res.output
    # The command's read of edges.txt, and the batch of the variant whose structure differs.
    assert [structure.path for structure in count_graph_builds] == ["edges.txt", "other.txt"]
    links = {}
    for name in ("edges.txt", "other.txt"):
        snapshot = project_home / "default" / "influence-cascade" / f"path={name}" / "batch-0" / "snapshots" / "iter_0.json"
        links[name] = sorted(map(tuple, json.loads(snapshot.read_text(encoding="utf-8"))["graph"]["links"]))
        assert links[name] == sorted(load_edge_list(tmp_path / name).edges())
    assert links["edges.txt"] != links["other.txt"]


def test_a_bad_file_in_a_structure_sweep_exits_2_before_anything_is_written(tmp_path, project_home):
    cfg = write_infmax(tmp_path, sweep={"structure.file.path": ["good.txt", "bad.txt"]})
    write_edge_list(tmp_path / "good.txt", seed=1)
    (tmp_path / "bad.txt").write_text("0 1\n1 2 # x\n", encoding="utf-8")
    res = invoke("sweep", "--config", cfg, "--scenario", "infmax", "--epochs", 1)
    assert res.exit_code == 2, res.output
    [line] = res.output.splitlines()
    assert line.startswith("error: ") and str(tmp_path / "bad.txt") in line and "line 2: expected 2 fields" in line
    assert not list(project_home.iterdir())


# ---------------------------------------------------------------------------
# CLI: merge
# ---------------------------------------------------------------------------


class TestMergeCommand:
    def test_mean_merge_writes_merged_files(self, tmp_path, project_home):
        cfg = write_tiny(tmp_path)
        res = invoke("run", "--config", cfg, "--epochs", 4, "--batches", 3)
        assert res.exit_code == 0
        parent = Path(res.output.splitlines()[0]).parent
        merged = invoke("merge", "mean", parent, "--json")
        assert merged.exit_code == 0, merged.output
        payload = json.loads(merged.output)
        assert payload["written"]
        written = [Path(p) for p in payload["written"]]
        assert any(p.name == "node_counts.json" for p in written)
        doc = json.loads(next(p for p in written if p.name == "node_counts.json")
                         .read_text())
        assert doc["aggregation"] == "mean"
        assert doc["sources"] == ["batch-0", "batch-1", "batch-2"]

    def test_mean_merge_mismatch_exits_data_code(self, tmp_path):
        parent = tmp_path / "parent"
        for index, values in ((0, [1.0, 2.0]), (1, [1.0, 2.0, 3.0])):
            cdir = parent / f"batch-{index}" / "collectors"
            cdir.mkdir(parents=True)
            write_doc(cdir / "x.json", scalar_doc("x", values))
            write_doc(cdir.parent / "run-meta.json", {})  # a finished run
        res = invoke("merge", "mean", parent)
        assert res.exit_code == 4
        assert "batch-1" in res.output

    def test_mean_merge_needs_exactly_one_dir(self, tmp_path):
        res = invoke("merge", "mean", tmp_path, tmp_path)
        assert res.exit_code == 2

    def test_labeled_merge_with_explicit_labels(self, tmp_path, project_home):
        cfg = write_tiny(tmp_path)
        out = invoke("run", "--config", cfg, "--epochs", 3, "--batches", 2)
        dirs = [line for line in out.output.splitlines() if line.strip()]
        target = tmp_path / "labeled.json"
        res = invoke("merge", "labeled", dirs[0], dirs[1],
                     "--name", "node_counts", "--labels", "first,second",
                     "--out", target)
        assert res.exit_code == 0, res.output
        doc = json.loads(target.read_text())
        assert doc["aggregation"] == "labeled"
        assert [s["label"] for s in doc["series"]] == ["first", "second"]

    def test_labeled_merge_default_labels_from_parents(self, tmp_path, project_home):
        cfg = write_tiny(tmp_path)
        a = invoke("run", "--config", cfg, "--epochs", 3, "--name", "sim-a")
        b = invoke("run", "--config", cfg, "--epochs", 3, "--name", "sim-b")
        dir_a = a.output.strip().splitlines()[-1]
        dir_b = b.output.strip().splitlines()[-1]
        target = tmp_path / "combo.json"
        res = invoke("merge", "labeled", dir_a, dir_b,
                     "--name", "node_counts", "--out", target)
        assert res.exit_code == 0, res.output
        doc = json.loads(target.read_text())
        assert [s["label"] for s in doc["series"]] == ["sim-a", "sim-b"]

    def test_labeled_merge_requires_name(self, tmp_path):
        res = invoke("merge", "labeled", tmp_path)
        assert res.exit_code == 2
        assert "--name" in res.output

    def test_labeled_merge_label_count_mismatch(self, tmp_path):
        res = invoke("merge", "labeled", tmp_path, "--name", "x",
                     "--labels", "a,b,c")
        assert res.exit_code == 2


# ---------------------------------------------------------------------------
# CLI: chart
# ---------------------------------------------------------------------------


class TestChartCommand:
    def test_area_chart_from_epidemic_counts(self, tmp_path, project_home):
        res = invoke("run", "--scenario", "sir", "--epochs", 10, "--seed", 2)
        run_dir = Path(res.output.strip().splitlines()[-1])
        counts = run_dir / "collectors" / "node_counts.json"
        out = tmp_path / "sir.svg"
        chart = invoke("chart", counts, "--kind", "area", "--out", out)
        assert chart.exit_code == 0, chart.output
        svg = out.read_text()
        for label in ("Susceptible", "Infected", "Recovered"):
            assert label in svg
        assert "<polygon" in svg

    def test_chart_bytes_are_reproducible(self, tmp_path):
        doc = write_doc(tmp_path / "t.json", scalar_doc("t", [5.0, 2.0, 8.0]))
        out = tmp_path / "t.svg"
        assert invoke("chart", doc, "--kind", "line", "--out", out).exit_code == 0
        first = out.read_bytes()
        assert invoke("chart", doc, "--kind", "line", "--out", out).exit_code == 0
        assert out.read_bytes() == first

    def test_html_output(self, tmp_path):
        doc = write_doc(tmp_path / "t.json", scalar_doc("t", [1.0]))
        out = tmp_path / "t.html"
        assert invoke("chart", doc, "--out", out).exit_code == 0
        assert out.read_text().startswith("<!doctype html>")

    def test_empty_series_chart_succeeds(self, tmp_path):
        doc = write_doc(tmp_path / "empty.json", scalar_doc("empty", []))
        out = tmp_path / "empty.svg"
        res = invoke("chart", doc, "--kind", "bar", "--out", out)
        assert res.exit_code == 0
        assert out.read_text().startswith("<svg")

    def test_missing_input_exits_data_code(self, tmp_path):
        res = invoke("chart", tmp_path / "absent.json", "--out", tmp_path / "o.svg")
        assert res.exit_code == 4

    def test_unknown_kind_rejected_by_usage(self, tmp_path):
        doc = write_doc(tmp_path / "t.json", scalar_doc("t", [1.0]))
        res = invoke("chart", doc, "--kind", "pie", "--out", tmp_path / "o.svg")
        assert res.exit_code == 2

    # Finite values whose axis range, with 0 and 5% padding, passes the float maximum are refused; 1.7e308 alone
    # pads to 1.785e308 and is drawn.
    @pytest.mark.parametrize("values, drawn", [([1.5e308, -1.5e308], False), ([-1.7e308], False), ([1.7e308], True)])
    def test_values_whose_padded_range_passes_the_float_maximum_exit_4(self, tmp_path, values, drawn):
        doc = write_doc(tmp_path / "t.json", scalar_doc("t", values))
        out = tmp_path / "t.svg"
        res = invoke("chart", doc, "--out", out)
        if drawn:
            assert res.exit_code == 0, res.output
            assert "<polyline" in out.read_text()
            return
        assert res.exit_code == 4, res.output
        [line] = res.output.splitlines()
        assert line.startswith("error: cannot chart ") and "float maximum" in line
        assert not out.exists()

    # Iterations and values are JSON ints of any size. One past the float range (400 digits), or iterations whose
    # span passes the float maximum (-10**308 to 10**308), are refused; -10**307 to 10**307 is drawn.
    @pytest.mark.parametrize("entries, drawn", [
        ([(10**400, 1)], False),
        ([(0, 10**400)], False),
        ([(-10**308, 1), (10**308, 2)], False),
        ([(-10**307, 1), (10**307, 2)], True),
    ])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_iterations_or_ints_past_the_float_range_exit_4(self, tmp_path, entries, drawn, labeled):
        doc = scalar_doc("t", [])
        doc["entries"] = [{"iteration": i, "value": {"S": v} if labeled else v} for i, v in entries]
        if labeled:
            doc = {"aggregation": "labeled", "series": [{"label": "run", "entries": doc["entries"]}]}
        out = tmp_path / "t.svg"
        res = invoke("chart", write_doc(tmp_path / "t.json", doc), "--out", out)
        if drawn:
            assert res.exit_code == 0, res.output
            assert "<polyline" in out.read_text()
            return
        assert res.exit_code == 4, res.output
        [line] = res.output.splitlines()
        assert line.startswith("error: cannot chart ") and "float maximum" in line
        assert not out.exists()

    # Iterations whose axis step is below their float spacing: one at 2**60 (a zero span widened by less than
    # that spacing), or 10**16 and 10**16 + 2 (a tick step of 0.5 that no longer moves the tick). Both are drawn;
    # an alarm fails the test if drawing never ends.
    @pytest.mark.parametrize("iterations", [[2**60], [10**16, 10**16 + 2]])
    def test_iterations_finer_than_their_float_spacing_are_drawn(self, tmp_path, iterations):
        doc = {"name": "t", "entries": [{"iteration": i, "value": k + 1} for k, i in enumerate(iterations)]}
        out = tmp_path / "t.svg"

        def hang(signum, frame):
            raise RuntimeError("chart did not end within 10 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            res = invoke("chart", write_doc(tmp_path / "t.json", doc), "--out", out)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.exit_code == 0, (res.output, res.exception)
        assert "<polyline" in out.read_text()


# ---------------------------------------------------------------------------
# CLI: inspect and export
# ---------------------------------------------------------------------------


@pytest.fixture()
def sir_run_dir(project_home):
    res = invoke("run", "--scenario", "sir", "--epochs", 5, "--seed", 11)
    assert res.exit_code == 0, res.output
    return Path(res.output.strip().splitlines()[-1])


class TestInspectCommand:
    def test_human_readable_output(self, sir_run_dir):
        res = invoke("inspect", sir_run_dir, "--node", 0)
        assert res.exit_code == 0, res.output
        assert "node 0 at iteration 0" in res.output
        assert "type:" in res.output
        assert "age" in res.output
        assert "neighbors (4)" in res.output  # degree-4 regular graph

    def test_json_output(self, sir_run_dir):
        res = invoke("inspect", sir_run_dir, "--node", 3, "--json")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["node"] == 3
        assert payload["type"] in {"Susceptible", "Infected", "Recovered"}
        assert "age" in payload["attributes"]
        assert len(payload["neighbors"]) == 4
        assert all(set(n) == {"node", "type"} for n in payload["neighbors"])

    def test_missing_node_is_usage_error(self, sir_run_dir):
        res = invoke("inspect", sir_run_dir, "--node", 999)
        assert res.exit_code == 2
        assert "999" in res.output

    def test_missing_snapshot_is_usage_error(self, sir_run_dir):
        res = invoke("inspect", sir_run_dir, "--iteration", 3, "--node", 0)
        assert res.exit_code == 2
        assert "iteration 3" in res.output

    def test_corrupt_snapshot_is_data_error(self, sir_run_dir):
        path = sir_run_dir / "snapshots" / "iter_0.json"
        doc = json.loads(path.read_text())
        doc["graph"]["links"].append([0, 100])
        path.write_text(json.dumps(doc))
        res = invoke("inspect", sir_run_dir, "--node", 0)
        assert res.exit_code == 4
        assert "malformed snapshot" in res.output


class TestExportCommand:
    def test_default_output_round_trips(self, sir_run_dir):
        res = invoke("export", sir_run_dir)
        assert res.exit_code == 0, res.output
        out = sir_run_dir / "export-iter_0.gexf"
        assert Path(res.output.strip()) == out
        graph, states, attrs = load_gexf(out)
        assert graph.num_nodes == 100
        assert graph.num_edges == 200
        assert set(states.values()) <= {"Susceptible", "Infected", "Recovered"}
        assert "age" in attrs.node

    def test_explicit_output_path(self, sir_run_dir, tmp_path):
        target = tmp_path / "snap.gexf"
        res = invoke("export", sir_run_dir, "--out", target)
        assert res.exit_code == 0
        assert target.is_file()

    def test_unknown_format_is_usage_error(self, sir_run_dir):
        res = invoke("export", sir_run_dir, "--format", "png")
        assert res.exit_code == 2
        assert "png" in res.output

    def test_missing_run_dir_is_usage_error(self, tmp_path):
        res = invoke("export", tmp_path / "nothing-here")
        assert res.exit_code == 2

    @pytest.mark.parametrize("where", ["state", "key"])
    def test_name_xml_cannot_carry_is_usage_error_and_writes_nothing(self, sir_run_dir, where):
        path = sir_run_dir / "snapshots" / "iter_0.json"
        doc = json.loads(path.read_text())
        if where == "state":
            doc["states"][0] = "A\x01"
        else:
            doc["node_attrs"]["k\x01"] = doc["node_attrs"].pop("age")
        path.write_text(json.dumps(doc))
        res = invoke("export", sir_run_dir)
        assert res.exit_code == 2
        assert "XML 1.0 does not allow" in res.output
        assert not list(sir_run_dir.glob("*.gexf"))


# ---------------------------------------------------------------------------
# CLI: inputs no run could have written
# ---------------------------------------------------------------------------


def entries(*values) -> list[dict]:
    return [{"iteration": i, "value": v} for i, v in enumerate(values)]


# Collector documents that break one rule a run writes by; each is refused by chart and by both merges.
BAD_COLLECTORS = {
    "bytes that are no UTF-8": b'{"name": "\xff", "entries": []}',
    "NaN value": '{"name": "x", "entries": [{"iteration": 0, "value": NaN}]}',
    "string value": {"name": "x", "entries": entries("a")},
    "boolean value": {"name": "x", "entries": entries(True)},
    "map holding a string": {"name": "x", "entries": entries({"S": 1}, {"S": "a"})},
    "map key set changes": {"name": "x", "entries": entries({"S": 1, "I": 2}, {"S": 1})},
    "entry without iteration": {"name": "x", "entries": [{"value": 1}]},
    "entry with an extra key": {"name": "x", "entries": [{"iteration": 0, "value": 1, "note": 1}]},
    "float iteration": {"name": "x", "entries": [{"iteration": 0.5, "value": 1}]},
    "decreasing iterations": {"name": "x", "entries": [{"iteration": 1, "value": 1}, {"iteration": 0, "value": 2}]},
    "entries is a number": {"name": "x", "entries": 5},
    "entries is a map": {"name": "x", "entries": {"a": 1}},
    "no name": {"entries": entries(1)},
}
# Labelled documents that no merge could have written; chart refuses each.
BAD_LABELED = {
    "series without label": {"name": "x", "aggregation": "labeled", "series": [{"entries": entries(1)}]},
    "series is a number": {"name": "x", "aggregation": "labeled", "series": 5},
    "series entries is a map": {"name": "x", "aggregation": "labeled", "series": [{"label": "a", "entries": {"a": 1}}]},
    "series holds NaN": {"aggregation": "labeled", "series": [{"label": "a", "entries": entries(1, math.nan)}]},
}
# Snapshot node states other than a node type or null at each of the graph's 2 nodes.
BAD_STATES = {"a string": "ab", "too many": ["A", "B", "C"], "too few": ["A"], "a number": ["A", 5], "a map": {"0": "A"}}

MALFORMED = (
    [("chart", name) for name in [*BAD_COLLECTORS, *BAD_LABELED]]
    + [(merge, name) for merge in ("merge mean", "merge labeled") for name in BAD_COLLECTORS]
    + [(command, name) for command in ("inspect", "export") for name in BAD_STATES]
)


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(doc if isinstance(doc, bytes) else (doc if isinstance(doc, str) else json.dumps(doc)).encode())
    return path


@pytest.mark.parametrize("command, case", MALFORMED, ids=[f"{command}: {case}" for command, case in MALFORMED])
def test_input_no_run_could_write_exits_4_with_one_error_line_and_writes_nothing(tmp_path, command, case):
    out = tmp_path / "out"
    if command == "chart":
        doc = write_json(tmp_path / "in.json", {**BAD_COLLECTORS, **BAD_LABELED}[case])
        res = invoke("chart", doc, "--out", out.with_suffix(".svg"))
    elif command.startswith("merge"):
        for index, doc in enumerate((scalar_doc("x", [1.0, 2.0]), BAD_COLLECTORS[case])):
            write_json(tmp_path / f"batch-{index}" / "collectors" / "x.json", doc)
            write_json(tmp_path / f"batch-{index}" / "run-meta.json", {})  # a finished run
        if command == "merge mean":
            res = invoke("merge", "mean", tmp_path)
        else:
            res = invoke("merge", "labeled", tmp_path / "batch-0", tmp_path / "batch-1", "--name", "x", "--out", out)
    else:
        snapshot = {"iteration": 0, "graph": {"directed": False, "nodes": 2, "links": [[0, 1]]},
                    "states": BAD_STATES[case], "node_attrs": {}, "edge_attrs": {}, "net_params": {}}
        write_json(tmp_path / "run" / "snapshots" / "iter_0.json", snapshot)
        extra = ("--node", 0) if command == "inspect" else ("--out", out.with_suffix(".gexf"))
        res = invoke(command, tmp_path / "run", *extra)
        assert "malformed snapshot" in res.output
    assert res.exit_code == 4, res.output
    [line] = res.output.splitlines()
    assert line.startswith("error: ")
    assert not list(tmp_path.glob("out*")) and not (tmp_path / "merged").exists()


@pytest.mark.parametrize("unreadable", ["batch-0/collectors/x.json", "batch-1/run-meta.json"])
def test_merge_mean_refuses_a_directory_in_a_result_files_place(tmp_path, unreadable):
    for index in (0, 1):
        write_json(tmp_path / f"batch-{index}" / "collectors" / "x.json", scalar_doc("x", [1.0, 2.0]))
        write_json(tmp_path / f"batch-{index}" / "run-meta.json", {})  # a finished run
    (tmp_path / unreadable).unlink()
    (tmp_path / unreadable).mkdir()
    res = invoke("merge", "mean", tmp_path)
    assert res.exit_code == 4, res.output
    [line] = res.output.splitlines()
    assert line.startswith(f"error: cannot read result file {tmp_path / unreadable}: ")
    assert not (tmp_path / "merged").exists()


def test_merge_mean_writes_no_merged_file_when_a_later_collector_is_refused(tmp_path):
    for index in (0, 1):
        write_json(tmp_path / f"batch-{index}" / "collectors" / "a.json", scalar_doc("a", [1.0, 2.0]))
        write_json(tmp_path / f"batch-{index}" / "run-meta.json", {})  # a finished run
    write_json(tmp_path / "batch-0" / "collectors" / "z.json", scalar_doc("z", [1.0, 2.0]))
    write_json(tmp_path / "batch-1" / "collectors" / "z.json", BAD_COLLECTORS["entries is a number"])
    res = invoke("merge", "mean", tmp_path)
    assert res.exit_code == 4, res.output
    [line] = res.output.splitlines()
    assert line.startswith("error: ") and "z.json" in line
    assert not (tmp_path / "merged").exists()


# ---------------------------------------------------------------------------
# CLI: one error boundary for every command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("error, code", [
    (HookError("boom", hook="h", iteration=2), 3),
    (MetricError("diverged"), 3),
    (CollectError("bad series"), 4),
    (ConfigError("bad key", path="structure"), 2),
    (EdgeListError("expected 2 fields", line=3, path="e.txt"), 2),
    (GexfError("bad gexf"), 2),
    (CrowdkitError("other"), 1),
    (FileNotFoundError(errno.ENOENT, "No such file or directory", "x.json"), 4),
    (OSError(errno.ENOSPC, "No space left on device"), 4),
])
def test_each_error_exits_with_its_code_and_one_error_line(tmp_path, monkeypatch, error, code):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "write_chart", failing)
    res = invoke("chart", tmp_path / "in.json", "--out", tmp_path / "o.svg")
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"error: {error}\n"


@pytest.mark.parametrize("command", [
    ("project-new", "p", "--home", "{file}/home"),
    ("run", "--scenario", "sir", "--epochs", 1, "--home", "{file}/home"),
    ("chart", "{doc}", "--out", "{file}/c.svg"),
    ("merge", "labeled", "{run}", "--name", "node_counts", "--out", "{file}/l.json"),
    ("export", "{run}", "--out", "{file}/s.gexf"),
])
def test_a_write_under_a_regular_file_exits_4_with_one_error_line(tmp_path, project_home, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    run = Path(invoke("run", "--scenario", "sir", "--epochs", 1).output.splitlines()[0])
    doc = run / "collectors" / "node_counts.json"
    res = invoke(*(str(a).format(file=afile, doc=doc, run=run) for a in command))
    assert res.exit_code == 4, res.output
    assert isinstance(res.exception, SystemExit)
    [line] = res.output.splitlines()
    assert line.startswith("error: [Errno ") and str(afile) in line


def test_a_closed_stdout_goes_to_clicks_own_handler(tmp_path, project_home, monkeypatch):
    def echo(message=None, err=False, **kwargs):
        if not err:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        click.echo(message, err=True, **kwargs)

    monkeypatch.setattr(cli_mod.click, "echo", echo)
    res = invoke("run", "--scenario", "sir", "--epochs", 1)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error:" not in res.output

"""Stored output digests: determinism pinned across versions, not just runs.

Each bundled scenario runs one persisted batch at a fixed seed and a small
size, and ``sir-directed`` runs the SIR fixture over a directed edge list, so
that its trigger reads in-neighbours. The sha256 of every collector file, of
every snapshot file, of ``summary.json`` and of the final-state list must
match the digests stored below. A change that alters how a run consumes its
random stream, or what it writes, fails here even when two runs inside one
process still agree with each other.

To re-pin after an intended output change, run this file as a script from
the repository root and paste what it prints into ``GOLDEN``:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import _surrogate_social_graph

from crowdkit import SCENARIOS, batch_run, collect, fixture_path, load_config, parse_config

SEED = 20240917

# scenario -> (epochs, snapshot period). Infmax always runs on the offline
# surrogate graph, even when a real edge list is configured for other tests.
PLANS = {
    "sir": (20, 5),
    "sir-directed": (20, 5),
    "stayhome": (20, 5),
    "trust": (10, 5),
    "infmax": (4, None),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _directed_sir_config(parent: Path):
    """``sir.yaml`` over a directed edge list written to ``parent``: 100 nodes, 3 out-edges each."""
    rng = np.random.default_rng(SEED)
    src = np.repeat(np.arange(100), 3)
    dst = (src + rng.integers(1, 100, src.size)) % 100
    (parent / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in zip(src.tolist(), dst.tolist())))
    config = yaml.safe_load(fixture_path("sir.yaml").read_text(encoding="utf-8"))
    config["structure"] = {"file": {"path": "edges.txt", "format": "edge-list", "directed": True}}
    return parse_config(config)


def run_digests(name: str, parent: Path) -> dict[str, str]:
    """Digests of one persisted batch of scenario ``name`` written under ``parent``."""
    epochs, period = PLANS[name]
    scenario = SCENARIOS[name.split("-")[0]]
    graph = _surrogate_social_graph() if name == "infmax" else None
    parent.mkdir(parents=True, exist_ok=True)
    config = _directed_sir_config(parent) if name == "sir-directed" else load_config(fixture_path(scenario.fixture))
    (outcome,) = batch_run(
        config,
        parent,
        base_dir=parent,
        batches=1,
        epochs=epochs,
        snapshot_period=period,
        master_seed=SEED,
        registry_factory=scenario.make_hooks,
        graph=graph,
        keep_results=True,
    )
    assert outcome.error is None, outcome.error
    run_dir = outcome.run_dir
    digests = {
        f"collectors/{path.name}": _sha256(path.read_bytes())
        for path in sorted((run_dir / "collectors").glob("*.json"))
    }
    digests.update(
        (f"snapshots/{path.name}", _sha256(path.read_bytes()))
        for path in sorted((run_dir / "snapshots").glob("iter_*.json"))
    )
    digests["summary.json"] = _sha256((run_dir / "summary.json").read_bytes())
    states = outcome.result.states
    final = json.dumps([states[v] for v in range(len(states))]).encode("utf-8")
    digests["final_states"] = _sha256(final)
    return digests


GOLDEN = {
    "infmax": {
        "collectors/ic_prepare.json": "fa9be7faf11df814defcb2b85f6eda04cda0e969f45b70ddab7b3ec7ec5d7614",
        "collectors/node_counts.json": "589978d5ed7ee439b19656a2586bc86c87df8ace09627bf93034850510c07618",
        "collectors/total_active.json": "182ffba171d78fa44b2a45a96e70af480cd8f381ee2dfb70946c5c47cc7e7de4",
        "snapshots/iter_0.json": "737a875d05e10e4658bb7b0f5e0dd596ebd3a504414f3f48342fbf55f7e1b6a0",
        "snapshots/iter_4.json": "b3959ce718547a00e6388087d3937c335d7cd6e08acb6fa706c00266c8b6dbeb",
        "summary.json": "490e805653a1a865410aa2db0ed424d3d73ecaecae9994a93a6c1aef495613fa",
        "final_states": "a924d13feb04a534529b13b5609b992fbc9243a3e7959d46bef5fbe88810a29a"
    },
    "sir": {
        "collectors/node_counts.json": "400da95a5fe5d4e2bcdf0dcb698268e34a1adaeac13330bdd5b7b966833270ad",
        "collectors/percentage_infected.json": "346bafa07ab86cfe954d2882e64a647b2a222241be4fd5d5c476cb1113a22617",
        "snapshots/iter_0.json": "71ca1578d177c93bb8962012ad4d0f7965599b79c775415bffb415b8e01176e0",
        "snapshots/iter_10.json": "f21fd6b862e43e208ad5fc2c0062337aff42f184628b04f75facdebbc70e824c",
        "snapshots/iter_15.json": "53bce657a6edd49c23859a2be6809df8a06dd420d92904419a86c6f67e709464",
        "snapshots/iter_20.json": "444843c6d27699a64334e3824967dd1dac7f098d1bf2c3b812343b48bf00a501",
        "snapshots/iter_5.json": "04f662e8d34c343bd060c9428c6e7d7b55e74335e20fe9405ce1603e1b6c125e",
        "summary.json": "3d9e965f3ec21b7c9026d3133e9e6b6d5bd3cfa41fc25eeef6fe97ca44fc1d04",
        "final_states": "2b9537207db9cc0c0bc67130f02d94353b2985d56753313adfc653743950c27a"
    },
    "sir-directed": {
        "collectors/node_counts.json": "3dd26a7676171e30680b8ec1e14e4647ae2e5eeb9dc3af59ce2fdc0e96da04ce",
        "collectors/percentage_infected.json": "b731ace12159d0649b8fcfaf5aa61cb4b83ff71cc08071a03df044fbce29d244",
        "snapshots/iter_0.json": "9e6f86ba6f76275dc8f0cb2d86a0d318ce174ad08e50176d2fd7c161c771bc24",
        "snapshots/iter_10.json": "254cc5da03533439435ed0f563c2ec3ab55d3c4d3658c6323750f2a286b157dd",
        "snapshots/iter_15.json": "f1027b447a08e71bc6363a3e2df1064d948973cc749760c6e1267da9190aaf27",
        "snapshots/iter_20.json": "01c1a60f06c575695912dae7f6226b411a138c11b2310d649507edd8af91afb0",
        "snapshots/iter_5.json": "3a4dd9a6ec5643b32540dcdc7fd6fb961d233c0efc274247c7f0550f03e870fd",
        "summary.json": "377dedcf43b2a5e9985f29b39f894ccb5023ad6ea03f5aa50e5f3fca6d4d275a",
        "final_states": "e482ec7d1d7da2b293581fb9d3356c866c359ec67f453ddc4c2e4c89280a2593"
    },
    "stayhome": {
        "collectors/home_count.json": "5437b40866f8b4518730af0acf74af55fd9cb919753be893755c2ce51102a9c9",
        "collectors/new_case_fraction.json": "c81d295c0b2e7359e945878d5869b4c7fdbee5ccc9fc2c6ea5c49ce5037f02be",
        "collectors/node_counts.json": "67a9bbed9a83ab7b244c4d6681e5309b83357c46d137d623bb961648b770f7cd",
        "snapshots/iter_0.json": "bbe95b14040fddc87e9b2ac42a5f2c75fcde260c85da5501520a762f29884174",
        "snapshots/iter_10.json": "876606f323c2f5cdb42f2a8bbf86a648a6e9df9e65c35ed09a12cb550c7d9140",
        "snapshots/iter_15.json": "2d2faa33d1e6ed8c0f99b99cba27e714ca321089e0ce2e75bc3174f633cbf08c",
        "snapshots/iter_20.json": "ee77961e42aaa94ffdbb2399e3b6758ca5d334191e6c220b790d81af08abd6cc",
        "snapshots/iter_5.json": "fb1a3fbabe3f69451cf7e38af72c6759e380df9d9a3f156380539647f431f362",
        "summary.json": "28837630220338eb5f256b6d6b489d3b3221a8245ef2d63865c34324a6554921",
        "final_states": "9be7caba4d8c0d65ca430f7b245b7303e5de7e98653a0eebae8c72eaf934e19c"
    },
    "trust": {
        "collectors/global_payoff.json": "011fac7cbf0dcc783a70014bbcc8adecbc0954cbb0cc823baebbf78482046d0e",
        "collectors/node_counts.json": "47998cc6dae5313110c61f4914f1feda88669708103a12ef789d4a860a884480",
        "collectors/trust_draws.json": "d628186ad71246e1b930c90e07985c0ad41f42876397fe82e7b8bcb5ce542095",
        "snapshots/iter_0.json": "1a6d613e794473b60cdd3cd16452cf9ea2319321b32489b458bdb625a69fcb57",
        "snapshots/iter_10.json": "027bb81a144f9d9427fd3ab6174727ce23adc6ecf80a8ca2ea7c9e769b1e2f18",
        "snapshots/iter_5.json": "474970cd5fe14250b7bf161a6cd4328e523717888c962fb171227ae6b9c5b266",
        "summary.json": "8a6ccd1b51f18d7acf414496797473f07760b40b546bc54f97e638efcc95e5e5",
        "final_states": "cf1e79970f3dd64e6f008c96aac9549939f1ebae1360eab6527e6e9c1106c6fe"
    }
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_outputs_match_stored_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PLANS))
def test_outputs_written_in_two_entry_pieces_match_stored_digests(name, tmp_path, monkeypatch):
    # Snapshot texts are built in pieces of at most ``_CHUNK`` entries. At the default size only infmax's
    # texts span several pieces; at 2, every links, pairs and values text of every fixture does.
    monkeypatch.setattr(collect, "_CHUNK", 2)
    assert run_digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: run_digests(name, Path(tmp) / name) for name in sorted(PLANS)}
    print(json.dumps(pinned, indent=4))

"""The benchmark's own tests, on tiny sizes of every workload.

Run from the repository root (the file name keeps it out of the main suite):

    python3 -m pytest -q bench/selftest.py
"""

import json
from pathlib import Path

import pytest

import run
from workloads import Exact, Stream, Theorem

SPEC = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SEED = 5

TINY = {
    "theorem-n200": Theorem(n=12, pool=16, trace_ops=2),
    "exact-n200": Exact(n=12, pool=16, trace_ops=2),
    "stream-n2000": Stream(n=60, pool=16, trace_ops=4),
}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    path.write_text(json.dumps(run.make_reference(TINY, (SEED,))))
    return path


def _run(capsys, name, trace, reference_path):
    status = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0.3",
                       "--trace", str(trace)], workloads=TINY, reference_path=reference_path)
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", TINY)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(capsys, reference, name, trace, section):
    status, result = _run(capsys, name, trace, reference)
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_stream_touches_no_graph_or_solver_layer(capsys, reference):
    _, result = _run(capsys, "stream-n2000", 1, reference)
    metrics = result["metrics"]
    assert metrics["process.edges_streamed"]["value"] > 0
    for layer in ("digraph.", "hitting.", "matching.", "rainbow.", "edgelist."):
        calls = [v["value"] for k, v in metrics.items()
                 if k.startswith(layer) and v["unit"] == "count"]
        assert calls and not any(calls), layer


@pytest.mark.parametrize("name", TINY)
def test_corrupted_reference_fails_the_run(capsys, reference, tmp_path, name):
    data = json.loads(reference.read_text())
    first = data[name]["outputs"][str(SEED)][0]
    field = TINY[name].fields[0]
    first[field] = "corrupted"
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(data))
    status, result = _run(capsys, name, 0, corrupted)
    assert status != 0
    assert not result["correct"] and result["failed"] >= 1


class _Decisions:
    """A workload stub whose op output is the outcome itself."""

    fields = ("outcome",)

    def record(self, inp, out):
        return {"outcome": out}

    def problems(self, inp, rec):
        return [] if rec["outcome"] in ("found", "not_found", "unknown") else ["bad outcome"]

    def unknown(self, rec):
        return rec["outcome"] == "unknown"


def test_unknown_is_tallied_not_failed_and_wrong_output_fails():
    outputs = run.Outputs(_Decisions(), [{"outcome": "found"}, {"outcome": "found"}])
    outputs.add(0, None, "unknown", None)
    assert (outputs.attempted, outputs.failed, outputs.unknown) == (1, 0, 1)
    assert not outputs.errors
    outputs.add(1, None, "not_found", None)
    assert (outputs.attempted, outputs.failed, outputs.unknown) == (2, 1, 1)
    assert outputs.errors

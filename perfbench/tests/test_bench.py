"""Self-tests of the benchmark: oracles, guard, seed handling and tracing.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
from child import OUTCOMES, run_child  # noqa: E402
from jobs import SETUP_JOB, WORKLOADS  # noqa: E402
from run import child_env  # noqa: E402

ENV = child_env(1)


def _cli(*args: str) -> bytes:
    return subprocess.run(
        [sys.executable, "-m", "sectorkit", *args],
        env=ENV, cwd=ROOT, capture_output=True, check=True, timeout=60,
    ).stdout


def _child(code: str, tmp_path, **limits):
    limits = {"timeout_s": 30.0, "rss_limit_bytes": 2 << 30, **limits}
    return run_child([sys.executable, "-c", code], env=ENV, cwd=str(ROOT),
                     tmp_dir=str(tmp_path), **limits)


def _bump_first_multiplicity(r):
    r["sectors"][0]["multiplicity"] += 1


def _bump_rank(r):
    r["sectors"][1]["rank"] += 1
    r["sectors"][0]["rank"] -= 1


def _bump_commutant(r):
    r["commutant_dim"] += 1


def _bump_kernel_dim(r):
    r["kernel_space_dim"] += 1


def _swap_carrier(r):
    r["sectors"][0]["carrier_dim"] += 1


def _fail_census(r):
    r["passed"] = False


def _shrink_carrier(r):
    r["certificate"]["carrier_dims"] = [1, 1]


def _scale_intertwiner(r):
    row = r["certificate"]["intertwiner"][0]
    r["certificate"]["intertwiner"][0] = [[1.5 * re, 1.5 * im] for re, im in row]


def _bump_hook(r):
    r["partitions"][1]["hook_dim"] += 1


def _shift_eigenvalue(r):
    r["rows"][3]["eigenvalue"] += 1e-3


TAMPERS = [
    (["sectors", "--m", "2", "--N", "3"], _bump_first_multiplicity),
    (["sectors", "--m", "2", "--N", "3"], _bump_rank),
    (["sectors", "--m", "2", "--N", "3"], _bump_commutant),
    (["cover", "--q-size", "3", "--N", "2"], _bump_kernel_dim),
    (["cover", "--q-size", "3", "--N", "2"], _swap_carrier),
    (["cover", "--q-size", "3", "--N", "2"], _fail_census),
    (["equiv", "--m", "3", "--N", "2"], _shrink_carrier),
    (["equiv", "--m", "3", "--N", "2"], _scale_intertwiner),
    (["tableaux", "--N", "4"], _bump_hook),
    (["circle", "--theta", "1", "--grid", "128"], _shift_eigenvalue),
]


@pytest.fixture(scope="module")
def reports():
    return {tuple(args): _cli(*args) for args in {tuple(a) for a, _ in TAMPERS}}


@pytest.mark.parametrize("args,tamper", TAMPERS, ids=[t.__name__ for _, t in TAMPERS])
def test_oracles_accept_real_and_reject_tampered_report(reports, args, tamper):
    output = reports[tuple(args)]
    assert oracles.check(args, output) == []
    tampered = copy.deepcopy(json.loads(output))
    tamper(tampered)
    assert oracles.check(args, json.dumps(tampered).encode()) != []


def test_csv_oracles_reject_tampered_rows():
    args = ["circle", "--theta", "3", "--grid", "128", "--format", "csv"]
    output = _cli(*args)
    assert oracles.check(args, output) == []
    assert oracles.check(args, output.replace(b"3.0,-16,", b"3.0,-15,", 1)) != []
    args = ["tableaux", "--N", "5", "--format", "csv"]
    output = _cli(*args)
    assert oracles.check(args, output) == []
    assert oracles.check(args, output.replace(b'"4,1",4,4', b'"4,1",5,5')) != []


def test_closed_forms_match_known_values():
    assert len(oracles.partitions(7)) == 15
    assert oracles.hook_dim((2, 1)) == 2 and oracles.hook_dim((3, 2)) == 5
    assert oracles.ssyt_count((2, 1), 2) == 2 and oracles.ssyt_count((1, 1, 1), 2) == 0
    # Schur-Weyl: sum over shapes of dim * multiplicity is m^N.
    for m, n in [(2, 5), (3, 4), (4, 3)]:
        total = sum(oracles.hook_dim(s) * oracles.ssyt_count(s, m) for s in oracles.partitions(n))
        assert total == m**n


def test_guard_kills_a_child_over_its_rss_limit(tmp_path):
    run = _child('b = b"\\x01" * (300 << 20)\nimport time; time.sleep(30)', tmp_path,
                 rss_limit_bytes=100 << 20)
    assert run.outcome() == "guard"
    assert run.wall_s < 20
    assert run.peak_rss_mb < 400


def test_timeout_kills_a_sleeping_child(tmp_path):
    run = _child("import time; time.sleep(30)", tmp_path, timeout_s=0.5)
    assert run.outcome() == "timeout"
    assert 0.5 <= run.wall_s < 10


@pytest.mark.parametrize(
    "code,outcome",
    [
        ("pass", "ok"),
        ("import sys; sys.exit(3)", "exit3"),
        ("raise MemoryError", "exit1_traceback"),
        ("import os, signal; os.kill(os.getpid(), signal.SIGTERM)", "signal"),
    ],
)
def test_exit_status_classes(tmp_path, code, outcome):
    assert _child(code, tmp_path).outcome() == outcome
    assert outcome in OUTCOMES


def test_seed_reaches_the_cli_as_seed_and_nothing_else():
    jobs = [SETUP_JOB] + [job for jobs in WORKLOADS.values() for job in jobs]
    for job in jobs:
        a, b = job.cli_args(11, "OUT"), job.cli_args(12345, "OUT")
        assert a.count("--seed") == 1
        at = a.index("--seed") + 1
        assert (a[at], b[at]) == ("11", "12345")
        assert a[:at] + a[at + 1:] == b[:at] + b[at + 1:]
    report = json.loads(_cli(*SETUP_JOB.cli_args(4242, "OUT")))
    assert report["config"]["seed"] == 4242


def test_workload_job_counts():
    assert len(WORKLOADS["reproduce"]) == 17
    assert [j.stretch for j in WORKLOADS["operator"]].count(True) == 2
    assert [j.stretch for j in WORKLOADS["census"]].count(True) == 3
    assert not any(j.stretch for j in WORKLOADS["reproduce"])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracing.metric_units(OUTCOMES)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "peak_rss_mb", "setup_s", "jobs_solved"
    ]


def test_traced_child_records_spans_on_every_namespace(tmp_path):
    spans_file = tmp_path / "spans.json"
    args = ["sectors", "--m", "2", "--N", "3", "--seed", "0"]
    subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(spans_file), "w/job", *args],
        env=ENV, cwd=ROOT, capture_output=True, check=True, timeout=60,
    )
    data = json.loads(spans_file.read_text())
    assert data["job_id"] == "w/job"
    spans = data["spans"]
    names = [s[1] for s in spans]
    assert names[0] == "cli.main" and spans[0][4] == -1
    # tensor_rep imports character and symmetric_group by name.
    by_id = {s[0]: s for s in spans}
    for span in spans:
        if span[1] in ("permgroup.character", "permgroup.symmetric_group"):
            assert by_id[span[4]][1] == "tensor_rep.central_projector"
    metrics = tracing.layer_metrics([spans])
    assert metrics["tensor_rep.central_projector.calls"] == 3
    assert metrics["permgroup.character.calls"] == 18
    assert metrics["tensor_rep.commutant_basis.matrices"] == 20
    assert metrics["cli.main.s"] >= metrics["tensor_rep.sector_decomposition.s"] > 0
    assert 0 <= metrics["cli.main.self_s"] < metrics["cli.main.s"]

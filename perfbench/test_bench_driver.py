"""The benchmark driver at ``--tiny`` scale: schema, names, coverage of
``BENCHMARK.json``, the traced breakdown's sum, and daemon clean-up.

No assertion here depends on how fast anything ran.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import driver, harness, workloads
from perfbench.report import SCHEMA

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIMEOUT_S = 300


@pytest.fixture(scope="module")
def manifest():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "tiny.json"
    done = _run("--tiny", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        return json.load(handle), out


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestManifest:
    def test_keys_and_limits(self, manifest):
        assert set(manifest) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert manifest["command"] == ["python3", "perfbench/run.py"]
        assert manifest["paths"] == ["perfbench"]
        assert 1 <= manifest["run_seconds"] <= 60
        assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
        assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
                   for w in manifest["workloads"])
        assert 1 <= len(manifest["end_to_end"]) <= 16
        assert 1 <= len(manifest["per_layer"]) <= 128

    def test_names_units_bounds(self, manifest):
        names = [w["name"] for w in manifest["workloads"]]
        for metric in manifest["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 <= metric["bound"] <= 0.25
        for metric in manifest["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
        assert all(NAME.match(name) for name in names)
        assert len(set(names)) == len(names)
        setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


class TestReferenceSpeed:
    def test_host_slowdown_leaves_the_thread_where_it_was(self):
        home = os.sched_getaffinity(0)
        client_cpu, daemon_cpu = harness.placement()
        assert {client_cpu, daemon_cpu} <= home
        assert harness.host_slowdown(daemon_cpu) > 0
        assert os.sched_getaffinity(0) == home

    def test_each_cpus_share_of_an_operation_is_divided_by_its_slowdown(self):
        def query(index, seconds, **more):
            return harness.OpRecord(index, "query", 0, seconds, **more)

        slow = [query(0, 0.30, slowdown=1.5),
                query(1, 0.70, slowdown=2.0, daemon_seconds=0.10, daemon_slowdown=1.0),
                query(2, 0.003, slowdown=2.0, cache_hit=True)]
        fast = [query(0, 0.20), query(1, 0.40), query(2, 0.0015, cache_hit=True)]
        on_slow_host, samples = harness.end_to_end(slow, 1, 0.2, 40.0)
        on_fast_host, _ = harness.end_to_end(fast, 1, 0.2, 40.0)
        assert on_slow_host == pytest.approx(on_fast_host)
        assert on_fast_host["query_p50_ms"] == pytest.approx(300.0)
        assert on_fast_host["throughput_qps"] == pytest.approx(3 / 0.6015)
        assert samples["host_slowdown"] == pytest.approx(5.5 / 3)
        two_clients, _ = harness.end_to_end(fast, 2, 0.2, 40.0)
        assert two_clients["throughput_qps"] == pytest.approx(2 * 3 / 0.6015)


class TestTinyMatrix:
    def test_schema_and_metadata(self, tiny_report):
        report, _ = tiny_report
        assert report["schema"] == SCHEMA
        assert report["claim"] is None
        for key in ("cpu_count", "backend", "key_bits", "python", "git_sha", "seed",
                    "seconds", "repeat", "scale", "sizes"):
            assert key in report["meta"]
        assert report["meta"]["scale"] == "tiny"
        assert report["meta"]["key_bits"] == 128

    def test_every_declared_metric_is_emitted(self, tiny_report, manifest):
        report, _ = tiny_report
        assert set(report["workloads"]) == {w["name"] for w in manifest["workloads"]}
        for name, slot in report["workloads"].items():
            assert set(slot["end_to_end"]) == {m["name"] for m in manifest["end_to_end"]}
            assert set(slot["per_layer"]) == {m["name"] for m in manifest["per_layer"]}
            for run_ in slot["runs"]:
                assert run_["failed"] == 0, (name, run_["problems"])
                assert run_["attempted"] >= 1
                assert run_["samples"]["ops"] >= 1
            for metric in manifest["end_to_end"]:
                assert slot["end_to_end"][metric["name"]]["median"] > 0, (name, metric["name"])

    def test_traced_breakdown_sums_to_the_traced_total(self, tiny_report):
        report, _ = tiny_report
        for name, slot in report["workloads"].items():
            layer = {k: v["median"] for k, v in slot["per_layer"].items()}
            parts = sum(v for k, v in layer.items()
                        if k.startswith("trace.") and k.endswith("_self_s"))
            total = layer["trace.total_s"]
            assert total > 0
            assert parts + layer["trace.unattributed_s"] == pytest.approx(total, rel=1e-6), name

    def test_workloads_discriminate(self, tiny_report):
        report, _ = tiny_report
        layer = {name: {k: v["median"] for k, v in slot["per_layer"].items()}
                 for name, slot in report["workloads"].items()}
        assert layer["fresh_inproc"]["net.link_s"] == 0
        assert layer["fresh_tcp"]["net.link_s"] > 0
        assert layer["fresh_inproc"]["server.cache_hit_ratio"] == 0
        assert layer["fresh_tcp"]["server.cache_hit_ratio"] == 0
        assert layer["reuse_mutate"]["server.cache_hit_ratio"] > 0
        for name in layer:
            traffic = layer[name]["protocols.sec_dedup_query_bytes"]
            assert (traffic > 0) == (name == "variants_tcp_c2")

    def test_compare(self, tiny_report, tmp_path):
        report, path = tiny_report
        same = _run("--compare", str(path), str(path))
        assert same.returncode == 0, same.stderr
        rows = [line for line in same.stdout.splitlines()[1:] if line.strip()]
        assert len(rows) == len(report["workloads"]) * len(
            next(iter(report["workloads"].values()))["end_to_end"])
        # One repeat per file: the spread is unknown, so nothing resolves.
        assert all("unresolved" in row and "ratio base: A =" in row for row in rows)
        report["meta"]["seed"] += 1
        other = tmp_path / "other.json"
        other.write_text(json.dumps(report))
        refused = _run("--compare", str(path), str(other))
        assert refused.returncode == 2
        assert "seed" in refused.stderr


class TestSingleRun:
    def test_result_line_and_daemon_gone(self, manifest, tmp_path):
        detail_path = tmp_path / "detail.json"
        done = _run("--workload", "fresh_tcp", "--seed", "3", "--trace", "0", "--tiny",
                    "--detail", str(detail_path))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in manifest["end_to_end"]]
        for metric in manifest["end_to_end"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        detail = json.loads(detail_path.read_text())
        assert detail["daemon_pid"] is not None
        assert _gone(detail["daemon_pid"])

    def test_same_seed_same_counts(self):
        """Counts are a function of the seed alone."""
        first, second = (
            json.loads(_run("--workload", "reuse_mutate", "--seed", "5", "--trace", "0",
                            "--tiny", "--seconds", "30").stdout.strip().splitlines()[-1])
            for _ in range(2)
        )
        for name in ("bytes_per_query", "rounds_per_query"):
            assert first["metrics"][name] == second["metrics"][name]
        assert first["attempted"] == second["attempted"]

    def test_daemon_gone_after_a_workload_exception(self, monkeypatch):
        launched = []
        real_launch = harness.launch_daemon

        def recording_launch(*args, **kwargs):
            process, address = real_launch(*args, **kwargs)
            launched.append(process)
            return process, address

        def broken_loop(*args, **kwargs):
            raise RuntimeError("injected workload failure")

        monkeypatch.setattr(harness, "launch_daemon", recording_launch)
        monkeypatch.setattr(harness, "closed_loop", broken_loop)
        spec = workloads.build("fresh_tcp", 7, workloads.TINY)
        with pytest.raises(RuntimeError, match="injected"):
            driver.run_untraced(spec, 7, 0.2, setup_repeats=1)
        assert len(launched) == 1
        assert launched[0].poll() is not None

    def test_refuses_a_checkout_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fresh_inproc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT_S, env=env)
        assert done.returncode != 0
        assert done.stdout.strip() == ""

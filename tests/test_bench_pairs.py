"""scripts/bench_pairs.py: the comparison it prints and writes with --json."""

import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_holds_the_printed_comparison(tmp_path, monkeypatch, capsys):
    bench = _load_script()
    calls = []

    def fake_run(root, workload, seed, seconds):
        # the change is twice as fast on every seed, and no slower anywhere
        side = root.name
        calls.append((side, seed))
        rate = seed * (2.0 if side == "change" else 1.0)
        return {"correct": True, "attempted": 10, "failed": 0, "returncode": 0,
                "meta": {"git_sha": side, "python": "3", "nproc": 2, "seed": seed,
                         "src_lines": 1},
                "calib_s": [0.1, 0.2],
                "metrics": {"jobs_per_s": {"value": rate, "unit": "1/s"},
                            "job_s.p50": {"value": 1 / rate, "unit": "s"},
                            "peak_rss_mb": {"value": 26.0, "unit": "MB"},
                            "setup_s": {"value": 0.07, "unit": "s"}}}

    monkeypatch.setattr(bench, "run_once", fake_run)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    assert bench.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                       "--pairs", "4", "--first-seed", "3", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert calls[:4] == [("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    assert doc["seeds"] == [3, 4, 5, 6] and doc["first_in_pair"][:2] == ["parent", "change"]
    rows = {row["metric"]: row for row in doc["metrics"]}
    assert rows["jobs_per_s"]["wins"] == 4 and rows["jobs_per_s"]["gain_claimable"]
    assert rows["jobs_per_s"]["relative_change"] == 1.0
    assert rows["peak_rss_mb"]["wins"] == 0 and not rows["peak_rss_mb"]["worse_than_bound"]
    for side in ("parent", "change"):
        assert doc["sides"][side]["meta"]["git_sha"] == side
        assert doc["sides"][side]["failed"] == 0 and doc["sides"][side]["attempted"] == 40
        assert [r["seed"] for r in doc["sides"][side]["runs"]] == [3, 4, 5, 6]
        assert doc["sides"][side]["runs"][0]["calib_s"] == [0.1, 0.2]
    # the file and the printed table hold the same figures
    assert "+100.0%" in printed and f"{rows['jobs_per_s']['change']['median']:.5g}" in printed
    assert "parent: git parent, src_lines 1\nchange: git change, src_lines 1\n" in printed


def test_run_once_reads_meta_and_calibration(monkeypatch):
    bench = _load_script()
    meta = {"git_sha": "abc", "python": "3.11.7", "nproc": 2, "seed": 1, "src_lines": 9}
    stdout = "\n".join([
        "workload w  seed 1  seconds 20  trace 0",
        "meta " + json.dumps(meta),
        "machine.calib_s  start 0.12000  end 0.13000",
        json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}}),
    ])

    class Done:
        returncode = 0

    Done.stdout = stdout
    envs = []

    def fake_run(*args, **kwargs):
        env = kwargs["env"]
        # the bytecode cache is off, and its prefix is a fresh empty directory
        envs.append((env["PYTHONPYCACHEPREFIX"], os.listdir(env["PYTHONPYCACHEPREFIX"])))
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert env["PATH"] == os.environ["PATH"]
        return Done()

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    result = bench.run_once(ROOT, "w", 1, 20)
    assert result["meta"] == meta and result["calib_s"] == [0.12, 0.13]
    assert result["attempted"] == 3 and result["returncode"] == 0
    bench.run_once(ROOT, "w", 2, 20)
    assert [listing for _, listing in envs] == [[], []]
    assert not any(os.path.exists(prefix) for prefix, _ in envs)

"""Tests of the benchmark itself, at a small size.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_prints():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_prints_every_metric(workload, trace, tmp_path):
    # launched from another directory: workers must still import the package
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--small"], cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_a_wrong_result_fails_the_run(trace, tmp_path):
    # every timed job differs from the (corrupted) reference: the run
    # still prints its result line, with correct false
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "crawl_discover", "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--small", "--wrong-reference"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1
    assert set(out["metrics"]) == set(run.PER_LAYER if trace
                                      else run.END_TO_END)
    assert "pages differ in status or title" in p.stderr


def test_no_timed_job_gives_null_metrics():
    recs = [{"kind": "setup", "setup_s": 1.5}, {"kind": "start"},
            {"kind": "job", "ok": False, "traced": False,
             "errors": ["JobTimeout: crawl job exceeded its time limit"]}]
    assert run.end_to_end(recs) == {"setup_s": 1.5, "cpu_ms_per_page": None,
                                    "out_bytes_per_page": None,
                                    "rss_mb": None}
    assert set(run.per_layer(recs, {"bfs_s": 1.0}, 4).values()) == {None}


def test_missing_package_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl_discover",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and not p.stdout.strip()


@pytest.fixture(scope="module")
def ray_session():
    """In-process Ray for the tests below; they run after the subprocess
    tests above, whose runs begin with ``ray stop --force``."""
    import shutil

    import ray

    import session
    work = ROOT / ".perfbench_work" / "pytest"
    session.start_ray(ROOT, work, 2)
    yield work
    ray.shutdown()
    shutil.rmtree(work, ignore_errors=True)


@pytest.fixture(scope="module")
def traced(ray_session):
    """One traced job of the small crawl_discover, with its reference."""
    import session
    from gate import reference
    from tracing import Tracer
    w = WORKLOADS["crawl_discover"].small()
    web = w.make_web(SEED)
    ref = reference(w, SEED)
    tr = Tracer()
    out_dir = ray_session / "traced"
    rec = session.traced_job(tr, w, SEED, web, web.rule_pack(), out_dir,
                             120, ref, ray_session)
    return w, ref, tr, rec, out_dir


def test_gate_passes_on_the_oracle_reference(traced):
    _w, _ref, _tr, rec, _out = traced
    assert rec["ok"], rec["errors"]


@pytest.mark.parametrize("corrupt", ["drop_url", "title", "image"])
def test_gate_fails_on_a_wrong_reference(traced, corrupt):
    import copy

    from gate import check
    w, ref, _tr, rec, out_dir = traced
    bad = copy.deepcopy(ref)
    if corrupt == "drop_url":
        bad["rounds"][0] = bad["rounds"][0][1:]
    elif corrupt == "title":
        url = next(u for u, (s, _t) in bad["pages"].items() if s == 200)
        bad["pages"][url] = (200, "not the title")
    else:
        bad["images"] = bad["images"][1:]
    assert check(w, out_dir, bad)


def test_traced_spans_nest_under_one_trace_id_per_job(traced):
    _w, _ref, tr, _rec, _out = traced
    by_id = {s.span_id: s for s in tr.spans}
    roots = [s for s in tr.spans if s.parent is None]
    assert [r.name for r in roots] == ["perfbench.job"]
    for s in tr.spans:
        assert s.trace_id == roots[0].trace_id
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.start - 1e-6 <= s.start <= s.end <= p.end + 1e-6
        assert -1e-9 <= tr.self_time(s) <= s.duration + 1e-9
    names = {s.name for s in tr.spans}
    assert {"crawl.run_crawl", "crawl.loop.round", "crawl.loop.grant",
            "perfbench.replay", "state.seen.add_batch",
            "stages.combine.hash_bucket_combine",
            "rulevm.vm.parse"} <= names


def test_self_time_subtracts_children_once():
    from tracing import Tracer
    tr = Tracer()
    with tr.span("root", trace_id="t") as root:
        pass
    root.start, root.end = 0.0, 10.0
    tr.add("a", 1.0, 4.0, root)
    tr.add("b", 3.0, 6.0, root)        # overlaps a
    tr.add("c", 8.0, 9.0, root)
    assert tr.self_time(root) == pytest.approx(10.0 - 5.0 - 1.0)

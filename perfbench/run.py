"""Crawl benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload crawl_discover --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root (any working directory works).  The
run computes the workload's BFSOracle reference, then starts one
fresh Ray session in its own process (session.py), which times its
set-up, then repeats ``run_crawl`` jobs for ``--seconds`` and checks
every job against the reference.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics from one traced session with
``--trace 1``; a metric no job could measure is null.  Spans of the
traced run are written to ``.perfbench_out/``.  Exit status is
non-zero, with no result line, only when the package is missing or
the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

JOB_TIMEOUT_S = 60      # one run_crawl call; past it the job has failed
RUN_DEADLINE_S = 170    # the whole run, reference and sessions included

END_TO_END = {          # name -> unit
    "setup_s": "s", "cpu_ms_per_page": "ms", "out_bytes_per_page": "B",
    "rss_mb": "MB",
}

PHASES = ("grant", "fetch_parse", "pages_write", "images", "frontier_next")


def ray_stop() -> None:
    """Stop any Ray processes left on this machine by an earlier run."""
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop",
                    "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=False)


def run_session(args: dict, deadline: float) -> bool:
    """The session process; killed with its process group at the
    deadline.  Returns whether it exited cleanly."""
    log = open(Path(args["work"]) / "session.log", "a")
    env = dict(os.environ, TMPDIR=str(Path(args["work"]) / "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), json.dumps(args)],
        cwd=str(ROOT), env=env, stdout=log, stderr=log,
        start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic())) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False
    finally:
        log.close()


def read_records(path: Path) -> list:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def timed_jobs(recs: list) -> list:
    """Untraced jobs that ran to the end, whether or not they passed
    the gate (a wrong result still took its time)."""
    return [r for r in recs if r["kind"] == "job" and "job_s" in r
            and not r["traced"]]


def median_of(jobs: list, f):
    return statistics.median(f(r) for r in jobs) if jobs else None


def end_to_end(recs: list) -> dict:
    jobs = timed_jobs(recs)
    return {
        # set-up and jobs are timed in CPU seconds of the whole machine:
        # wall time follows what other tenants of the host steal (see
        # LAYERS.md), CPU time much less
        "setup_s": next((r["setup_s"] for r in recs
                         if r["kind"] == "setup"), None),
        "cpu_ms_per_page": median_of(
            jobs, lambda r: r["cpu_s"] / r["granted"] * 1e3),
        "out_bytes_per_page": median_of(
            jobs, lambda r: r["out_bytes"] / r["granted"]),
        "rss_mb": max((r["rss_mb"] for r in jobs), default=None),
    }


PER_LAYER = {           # name -> unit; values computed in per_layer()
    "setup.wall_s": "s", "crawl.job_s": "s", "crawl.pages_per_s": "1/s",
    "crawl.frontier_ops_per_s": "1/s", "crawl.job_cpu_s": "s",
    "machine.steal_share": "ratio",
    **{f"crawl.loop.{p}_s": "s" for p in
       ("round0", *PHASES, "outside_rounds", "round_self")},
    **{f"crawl.loop.{c}": "count" for c in
       ("rounds", "candidates", "granted", "pages_ok", "next_frontier",
        "images_written")},
    **{f"crawl.pages.{s}": "count" for s in
       ("status_200", "status_4xx", "status_5xx", "status_other")},
    "state.actor_ramp_s": "s",
    "state.seen.add_ns_per_url": "ns",
    "state.seen.new_share": "ratio",
    "state.robots.parse_us_per_host": "us",
    "state.robots.allowed_ns_per_path": "ns",
    "stages.crawl_stages.canonicalize_us_per_url": "us",
    "stages.combine.rows_per_s": "1/s",
    "ray_data.floor_s": "s",
    "stages.crawl_stages.fetch_parse_us_per_page": "us",
    "crawl.loop.fetch_parse_parallel_eff": "ratio",
    "rulevm.parse_us_per_page": "us",
    "rulevm.transport.fetch_us_per_page": "us",
    "storage.lance_layout.commit_ms_per_fragment": "ms",
    "sources.codecs.decode_us_per_image": "us",
    "storage.frontier_bytes_per_page": "B",
    "storage.pages_bytes_per_page": "B",
    "storage.images_bytes_per_page": "B",
    "crawl.oracle.bfs_s": "s",
    "trace.overhead_share": "ratio",
}


def per_layer(recs: list, ref: dict, num_cpus: int) -> dict:
    traced = next((r for r in recs if r["kind"] == "job" and r["traced"]
                   and "raw" in r), None)
    jobs = timed_jobs(recs)
    if traced is None or not jobs:
        return {k: None for k in PER_LAYER}
    job_s = median_of(jobs, lambda r: r["job_s"])
    tot, raw = traced["totals"], traced["raw"]
    rounds = tot["per_round"]
    granted = tot["granted"]
    v = {f"crawl.loop.{p}_s": sum(m["phases"].get(p, 0.0) for m in rounds)
         for p in PHASES}
    # wall-clock view of set-up and of the untraced job(s), and how much
    # of the machine other tenants took meanwhile
    v["setup.wall_s"] = next(r["setup_wall_s"] for r in recs
                             if r["kind"] == "setup")
    v["crawl.job_s"] = job_s
    v["crawl.pages_per_s"] = median_of(
        jobs, lambda r: r["granted"] / r["job_s"])
    v["crawl.frontier_ops_per_s"] = median_of(
        jobs, lambda r: r["frontier_ops"] / r["job_s"])
    v["crawl.job_cpu_s"] = median_of(jobs, lambda r: r["cpu_s"])
    v["machine.steal_share"] = median_of(jobs, lambda r: r["steal"])
    v["crawl.loop.round0_s"] = rounds[0]["sec"]
    v["crawl.loop.outside_rounds_s"] = (traced["run_crawl_s"]
                                        - sum(m["sec"] for m in rounds))
    # in-round time that no reported phase covers
    v["crawl.loop.round_self_s"] = traced["self_s"]["crawl.loop.round"]
    v["crawl.loop.rounds"] = tot["rounds"]
    for c in ("candidates", "granted", "pages_ok", "next_frontier",
              "images_written"):
        v[f"crawl.loop.{c}"] = sum(m[c] for m in rounds)
    for k, n in traced["mix"].items():
        v[f"crawl.pages.{k}"] = n
    fp_us = raw["fetch_parse_stage_s"] / raw["sample_pages"] * 1e6
    v.update({
        "state.actor_ramp_s": raw["actor_ramp_s"],
        "state.seen.add_ns_per_url": raw["seen_s"] / raw["candidates"] * 1e9,
        "state.seen.new_share": raw["seen_new"] / raw["candidates"],
        "state.robots.parse_us_per_host":
            raw["robots_parse_s"] / raw["robots_hosts"] * 1e6,
        "state.robots.allowed_ns_per_path":
            raw["robots_allowed_s"] / raw["robots_paths"] * 1e9,
        "stages.crawl_stages.canonicalize_us_per_url":
            raw["canonicalize_s"] / raw["candidates"] * 1e6,
        "stages.combine.rows_per_s": raw["combine_rows"] / raw["combine_s"],
        "ray_data.floor_s": raw["ray_data_floor_s"],
        "stages.crawl_stages.fetch_parse_us_per_page": fp_us,
        "crawl.loop.fetch_parse_parallel_eff":
            fp_us * 1e-6 * granted / (v["crawl.loop.fetch_parse_s"]
                                      * num_cpus),
        "rulevm.parse_us_per_page":
            raw["parse_s"] / raw["parse_pages"] * 1e6,
        "rulevm.transport.fetch_us_per_page":
            raw["transport_s"] / raw["sample_pages"] * 1e6,
        "storage.lance_layout.commit_ms_per_fragment":
            raw["commit_s"] / raw["fragments"] * 1e3,
        "sources.codecs.decode_us_per_image":
            raw["decode_s"] / raw["images"] * 1e6,
        "crawl.oracle.bfs_s": ref["bfs_s"],
        "trace.overhead_share":
            traced["run_crawl_s"] / job_s - 1.0,
    })
    for d, name in (("frontier", "frontier"), ("pages", "pages"),
                    ("images_lance", "images")):
        v[f"storage.{name}_bytes_per_page"] = \
            traced["split"].get(d, 0) / granted
    return v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="6-host webs, to test the benchmark itself")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="corrupt every title of the reference, to test "
                         "that the gate fails a run")
    a = ap.parse_args(argv)
    t_deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "uniparser_ray" / "__init__.py").is_file():
        print(f"perfbench: package uniparser_ray not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from gate import reference
    from workloads import NUM_CPUS, WORKLOADS
    if a.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {a.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[a.workload].small() if a.small else WORKLOADS[a.workload]

    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_out = ROOT / ".perfbench_out" / f"trace-{w.name}-{a.seed}.json"
    trace_out.parent.mkdir(exist_ok=True)
    records = work / "records.jsonl"
    try:
        ray_stop()
        ref = reference(w, a.seed)
        if a.wrong_reference:
            ref["pages"] = {u: (s, "wrong") for u, (s, _t)
                            in ref["pages"].items()}
        with open(work / "ref.pkl", "wb") as f:
            pickle.dump(ref, f)
        clean = run_session({
            "root": str(ROOT), "work": str(work), "workload": w.name,
            "seed": a.seed, "trace": a.trace, "small": a.small,
            # a traced run times one untraced job, for trace.overhead_share
            "seconds": 0 if a.trace else a.seconds,
            "job_timeout": JOB_TIMEOUT_S, "ref": str(work / "ref.pkl"),
            "records": str(records), "trace_out": str(trace_out),
        }, t_deadline)
        recs = read_records(records)
        if not clean:
            ray_stop()
            sys.stderr.write((work / "session.log").read_text()[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = [r for r in recs if r["kind"] == "job"]
    starts = sum(1 for r in recs if r["kind"] == "start")
    # a session that died in set-up counts as one failed job
    attempted = max(starts, 1)
    failed = attempted - sum(1 for r in jobs if r["ok"])
    for r in jobs:
        for e in r["errors"]:
            print(f"perfbench: job failed: {e}", file=sys.stderr)
    if a.trace:
        values, units = per_layer(recs, ref, NUM_CPUS), PER_LAYER
    else:
        values, units = end_to_end(recs), END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One Ray session of a benchmark run, in its own process.

    python3 perfbench/session.py '<json args>'

Set-up (package import, ``ray.init`` and one untimed warm-up job) is
measured in CPU seconds of the whole machine as ``setup_s``, and in
wall seconds.  Then timed ``run_crawl`` jobs repeat until the
session's share of the run's seconds is spent; each is checked against
the oracle reference outside its timing.  With ``trace`` the session
also runs one traced job and replays its inputs through the layers.
Results go to a JSON-lines file, one record per job plus the set-up
time; ``run.py`` aggregates them.
"""

import os
import time


def machine_cpu() -> tuple:
    """(busy, stolen, all) CPU seconds of the machine since boot, from
    /proc/stat.  Busy time excludes what other tenants stole."""
    hz = os.sysconf("SC_CLK_TCK")
    # user nice system idle iowait irq softirq, then steal
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    busy = v[0] + v[1] + v[2] + v[5] + v[6]
    return busy / hz, v[7] / hz, sum(v) / hz


T_START, C_START = time.perf_counter(), machine_cpu()

import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class JobTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise JobTimeout("crawl job exceeded its time limit")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def ray_temp_dir(work: Path):
    """Ray's session files inside the run's work dir, unless that path
    is too long for Ray's unix sockets (limit 107 bytes, of which the
    session dir and socket name take ~62)."""
    d = work / "ray"
    return str(d) if len(str(d)) <= 44 else None


def start_ray(root: Path, work: Path, num_cpus: int):
    import ray

    # Ray's workers inherit this environment, so they import the package
    # from the checkout whatever directory the run was launched from.  A
    # runtime_env would do the same through a setup process per worker,
    # which made the actor ramp this benchmark measures ~40 % slower.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root), os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 2 ** 20,
             _temp_dir=ray_temp_dir(work))
    import logging

    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def crawl_job(w, seed, web, rule_pack, out_dir: Path, limit: float):
    """One ``run_crawl`` in a fresh out_dir; returns its totals and
    its timing: wall seconds, busy CPU seconds of the machine and the
    share of the machine's time that other tenants stole."""
    from uniparser_ray.crawl.loop import run_crawl
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = w.config(seed, str(out_dir), w.seeds(web))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        c0 = machine_cpu()
        t0 = time.perf_counter()
        totals = run_crawl(cfg, rule_pack)
        t1 = time.perf_counter()
        c1 = machine_cpu()
        return totals, {"job_s": t1 - t0, "cpu_s": c1[0] - c0[0],
                        "steal": (c1[1] - c0[1]) / max(1e-9, c1[2] - c0[2])}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def job_record(w, totals, timing, out_dir: Path, ref, traced=False):
    from gate import check, read_pages, status_mix
    rounds = read_pages(out_dir)
    errors = check(w, out_dir, ref, rounds)
    return {
        "kind": "job", "traced": traced, "ok": not errors, "errors": errors,
        **timing, "granted": totals["granted"],
        "frontier_ops": sum(m["candidates"] + m["next_frontier"]
                            for m in totals["per_round"]),
        "out_bytes": dir_bytes(out_dir), "mix": status_mix(rounds),
        # peak RSS of this process so far
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_job(tr, w, seed, web, rule_pack, out_dir: Path, limit, ref,
               work: Path):
    """A job under spans: root -> run_crawl -> rounds -> phases, and
    root -> replay -> one span per layer (see layers.py)."""
    import layers
    trace_id = f"{w.name}-{seed}-traced"
    with tr.span("perfbench.job", trace_id=trace_id):
        with tr.span("crawl.run_crawl") as rc:
            totals, timing = crawl_job(w, seed, web, rule_pack, out_dir,
                                       limit)
        # the per-round phases run_crawl reports become child spans,
        # laid back to back and ending where the call returned
        t = rc.end - sum(m["sec"] for m in totals["per_round"])
        for m in totals["per_round"]:
            rs = tr.add("crawl.loop.round", t, t + m["sec"], rc,
                        round=m["round"], reconstructed=True)
            p = t
            for name, sec in m["phases"].items():
                # phases are rounded to ms; keep them inside the round
                tr.add(f"crawl.loop.{name}", p, min(p + sec, rs.end), rs,
                       reconstructed=True)
                p = min(p + sec, rs.end)
            t += m["sec"]
        rec = job_record(w, totals, timing, out_dir, ref, traced=True)
        with tr.span("perfbench.replay"):
            raw = layers.replay(tr, w.config(seed, str(out_dir), []), web,
                                rule_pack, out_dir, work)
    self_s = {}
    for s in tr.spans:
        if s.trace_id == trace_id:
            self_s[s.name] = self_s.get(s.name, 0.0) + tr.self_time(s)
    rec.update(totals=totals, raw=raw, run_crawl_s=rc.duration, self_s=self_s,
               split={d: dir_bytes(out_dir / d) for d in
                      ("frontier", "pages", "images_lance")
                      if (out_dir / d).exists()})
    return rec


def main(args: dict) -> None:
    root = Path(args["root"])
    work = Path(args["work"])
    sys.path.insert(0, str(root))
    from workloads import NUM_CPUS, WORKLOADS
    w = WORKLOADS[args["workload"]]
    if args["small"]:
        w = w.small()
    seed = args["seed"]
    limit = args["job_timeout"]
    with open(args["ref"], "rb") as f:
        ref = pickle.load(f)
    out = open(args["records"], "a")

    def emit(rec):
        out.write(json.dumps(rec) + "\n")
        out.flush()

    import ray
    start_ray(root, work, NUM_CPUS)
    try:
        web = w.make_web(seed)
        rule_pack = web.rule_pack()
        # the warm-up is a full job: a smaller web leaves some Ray Data
        # workers cold, and the first timed job pays for them
        crawl_job(w, seed, web, rule_pack, work / "warm", limit)
        emit({"kind": "setup", "setup_s": machine_cpu()[0] - C_START[0],
              "setup_wall_s": time.perf_counter() - T_START})
        shutil.rmtree(work / "warm", ignore_errors=True)

        t_end = time.perf_counter() + args["seconds"]
        n = 0
        while n == 0 or time.perf_counter() < t_end:
            out_dir = work / f"job{n}"
            emit({"kind": "start"})
            try:
                totals, timing = crawl_job(w, seed, web, rule_pack,
                                           out_dir, limit)
                emit(job_record(w, totals, timing, out_dir, ref))
            except Exception as e:  # a failed job is counted, not fatal
                emit({"kind": "job", "ok": False, "traced": False,
                      "errors": [f"{type(e).__name__}: {e}"]})
                break
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            n += 1
        if args["trace"]:
            from tracing import Tracer
            tr = Tracer()
            emit({"kind": "start"})
            rec = traced_job(tr, w, seed, web, rule_pack, work / "traced",
                             limit, ref, work)
            tr.write(args["trace_out"])
            emit(rec)
    finally:
        ray.shutdown()
        out.close()


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main(json.loads(sys.argv[1]))

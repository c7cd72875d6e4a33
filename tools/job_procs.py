"""Per-process CPU of back-to-back crawl jobs in one Ray session.

    python3 tools/job_procs.py --workload crawl_discover --jobs 4

Starts one local Ray session (the benchmark's CPU count), then runs
``--jobs`` ``run_crawl`` jobs of a ``perfbench`` workload (web seed
101) one after the other, each in a fresh output dir; the first is the
warm-up.  Around every job it reads ``/proc`` for this process and its
descendants (the session's GCS, raylet and worker processes, nothing
else on the machine) and prints, per process, the CPU seconds the job
used and whether the process is new: started during the job, or gone
by its end (a process that is neither is listed from 0.01 CPU s up).
Each job ends with one JSON summary line.  The workload definitions
are imported from ``perfbench/workloads.py`` and not changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "perfbench"))

TICK = os.sysconf("SC_CLK_TCK")
SEED = 101
MIN_CPU_S = 0.01


def _stat(pid: int):
    """(ppid, start time, cpu seconds) of a live pid, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # fields after the parenthesised command name, which may hold spaces
    f = raw[raw.rindex(")") + 2:].split()
    return int(f[1]), int(f[19]), (int(f[11]) + int(f[12])) / TICK


def _name(pid: int) -> str:
    try:
        cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return cmd.replace(b"\0", b" ").decode(errors="replace").strip()[:60]


def snapshot() -> dict:
    """{(pid, start time): (cpu seconds, name)} of this process and
    every descendant, read from ``/proc``."""
    procs = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            st = _stat(int(d.name))
            if st is not None:
                procs[int(d.name)] = st
    mine, todo = set(), [os.getpid()]
    children = {}
    for pid, (ppid, _, _) in procs.items():
        children.setdefault(ppid, []).append(pid)
    while todo:
        pid = todo.pop()
        mine.add(pid)
        todo.extend(children.get(pid, []))
    return {(pid, procs[pid][1]): (procs[pid][2], _name(pid))
            for pid in mine if pid in procs}


def job_rows(before: dict, after: dict) -> list:
    """Per process of either snapshot: (pid, cpu seconds in the job,
    "new" / "gone" / "", name).  A process gone by the end reads 0 s:
    what it used before it exited is not visible in ``/proc``."""
    rows = []
    for key in sorted(before.keys() | after.keys()):
        if key in after:
            cpu0 = before.get(key, (0.0,))[0]
            rows.append((key[0], after[key][0] - cpu0,
                         "" if key in before else "new", after[key][1]))
        else:
            rows.append((key[0], 0.0, "gone", before[key][1]))
    return rows


def main() -> None:
    from workloads import NUM_CPUS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--jobs", type=int, default=4,
                    help="jobs in the session, the warm-up included")
    args = ap.parse_args()

    import ray

    from uniparser_ray.crawl.loop import run_crawl

    # workers import the package from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    w = WORKLOADS[args.workload]
    web = w.make_web(SEED)
    rule_pack = web.rule_pack()
    work = Path(tempfile.mkdtemp(prefix="job_procs-"))
    try:
        for n in range(args.jobs):
            out = work / f"job{n}"
            before = snapshot()
            totals = run_crawl(w.config(SEED, str(out), w.seeds(web)),
                               rule_pack)
            rows = job_rows(before, snapshot())
            shutil.rmtree(out, ignore_errors=True)
            kind = "warm-up" if n == 0 else "timed"
            print(f"# job {n} ({kind})")
            print(f"{'pid':>8} {'cpu_s':>7} {'':4}  name")
            for pid, cpu, tag, name in sorted(rows, key=lambda r: -r[1]):
                if cpu >= MIN_CPU_S or tag:
                    print(f"{pid:>8} {cpu:7.3f} {tag:4}  {name}")
            print(json.dumps({
                "job": n, "kind": kind,
                "cpu_s": round(sum(r[1] for r in rows), 3),
                "procs": len(rows),
                "new": sum(r[2] == "new" for r in rows),
                "gone": sum(r[2] == "gone" for r in rows),
                "granted": totals["granted"],
                "state_hosts": totals.get("state_hosts")}), flush=True)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()

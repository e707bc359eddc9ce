"""Job processes, their outputs and the timed passes of the end-to-end run."""
from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import statistics
import sys
import time
from collections import deque
from pathlib import Path

import checks

SETUP_PER_PASS = 4
MIN_PASSES = 2
# Every run must end within 180 s; 10 s are left for input generation and checks.
RUN_DEADLINE_S = 170
SETUP_JOB = {"id": "setup", "argv": ["--version"], "check": "version", "expect": {}}
# The host probe's median time on the reference host (2-vCPU VM, Python
# 3.11.7).  Each stretch of a job's running time is scaled by
# PROBE_REFERENCE_S over the probes just before and just after it, so that
# the metrics read as seconds on that host at its usual speed.
PROBE_REFERENCE_S = 0.1
PROBE_ROUNDS = 5
# A timed job is stopped after each SLICE_S seconds of running to probe the host.
SLICE_S = 2.0


class JobTimeout(Exception):
    """The run's deadline passed while a job was running."""


def _probe_round() -> None:
    # sparse integer row elimination, as in a Smith form over dict rows
    rows = [{(i * 7 + j * 13) % 97: (i + j) % 5 - 2 for j in range(12)} for i in range(160)]
    for i in range(1, len(rows)):
        pivot, row = rows[i - 1], rows[i]
        for col, value in pivot.items():
            row[col] = row.get(col, 0) * 3 - value
    # breadth-first search over a ring with chords, as in a girth search
    n = 20000
    adj = [((v + 1) % n, (v - 1) % n, (v * 5 + 3) % n) for v in range(n)]
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    # set building and big-integer arithmetic
    x = len({(k * 7919) % 100003 for k in range(40000)})
    for k in range(1, 800):
        x = x * k % (1 << 3000)


def host_probe() -> float:
    """Seconds this process takes for a fixed pure-Python workload.

    It imports nothing from systolic, so no change to the program can move
    it: it measures only how fast the host runs Python at that moment.
    """
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        _probe_round()
    return time.perf_counter() - start


def cli_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def spawn(argv: list[str], stdout: Path, env: dict, deadline: float,
          on_stretch=None) -> tuple[float, int, int]:
    """Run one process to its end: (wall seconds, max RSS in KiB, exit code).

    With ``on_stretch``, the process is stopped (SIGSTOP) after every SLICE_S
    seconds of running, ``on_stretch(seconds it ran)`` is called while it is
    stopped, and it is continued (SIGCONT); ``on_stretch`` is called once
    more after the process exits.  The wall seconds are the sum of the
    stretches, so time spent stopped is not counted.  The caller's working
    directory is the job's; exit code -1 means the run's deadline killed it.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        wall = 0.0
        begin = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        reaped = False
        try:
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                exited = select.select([pidfd], [], [], min(left, SLICE_S) if on_stretch else left)[0]
                if not exited and not on_stretch:
                    continue
                if not exited:
                    os.kill(pid, signal.SIGSTOP)
                _, status, usage = os.wait4(pid, os.WUNTRACED)
                reaped = not os.WIFSTOPPED(status)
                stretch = time.perf_counter() - begin
                wall += stretch
                if on_stretch:
                    on_stretch(stretch)
                if reaped:
                    return wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)
                begin = time.perf_counter()
                os.kill(pid, signal.SIGCONT)
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
            os.close(pidfd)
    return wall + time.perf_counter() - begin, 0, -1


class Outputs:
    """Each job run's exit code and output, with the graph the job read."""

    def __init__(self):
        self.texts: dict[str, str] = {}
        self.latest: dict[str, str] = {}
        self.runs: list[tuple[str, int, str, str | None]] = []

    def record(self, job: dict, path: Path, code: int) -> None:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        self.texts.setdefault(digest, data.decode(errors="replace"))
        graph = self.latest.get(job.get("graph", ""))
        self.latest[job["id"]] = digest
        self.runs.append((job["id"], code, digest, graph))

    def verdicts(self, jobs: dict[str, dict]) -> list[bool]:
        """Whether each run passed, in the order the runs were recorded.

        A run fails when it exits non-zero or when its output fails its check;
        the check runs whatever the exit code, and once per distinct (output,
        graph).  Each failure is named on stderr.
        """
        checked: dict[tuple, str | None] = {}
        ok, notes = [], set()
        for job_id, code, digest, graph in self.runs:
            key = (job_id, digest, graph)
            if key not in checked:
                checked[key] = run_check(jobs[job_id], self.texts[digest], self.texts.get(graph))
            problems = [f"exit code {code}"] if code else []
            problems += [checked[key]] if checked[key] else []
            if problems:
                notes.add(f"{job_id}: {'; '.join(problems)}")
            ok.append(not problems)
        for note in sorted(notes):
            print(f"FAILED {note}", file=sys.stderr)
        return ok


def run_check(job: dict, text: str, graph_text: str | None) -> str | None:
    """None when the output passes its check, else what is wrong with it."""
    try:
        checks.CHECKERS[job["check"]](job, text, graph_text)
    except checks.CheckFailure as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return None


def scaled_times(timeline: list[list], runs: int) -> list[float]:
    """Each job run's scaled seconds: the sum over its stretches of
    seconds * PROBE_REFERENCE_S / (mean of the two probes around the stretch).

    The timeline holds ["probe", -1, seconds] and ["job", run index, seconds]
    entries; it alternates probes and stretches, starting and ending with a probe.
    """
    scaled = [0.0] * runs
    for i, (kind, run, seconds) in enumerate(timeline):
        if kind == "job":
            speed = statistics.fmean((timeline[i - 1][2], timeline[i + 1][2]))
            scaled[run] += seconds * PROBE_REFERENCE_S / speed
    return scaled


def schedule(jobs: list[dict], top: str, top_runs: int) -> list[dict]:
    """One pass: the job list with SETUP_PER_PASS no-work jobs spread through it,
    and the top job run ``top_runs`` times, the extra runs spread through it too."""
    out = []
    every = max(len(jobs) // SETUP_PER_PASS, 1)
    for i, job in enumerate(jobs):
        if i % every == 0 and sum(j is SETUP_JOB for j in out) < SETUP_PER_PASS:
            out.append(SETUP_JOB)
        out.append(job)
    top_job = next(job for job in jobs if job["id"] == top)
    start = out.index(top_job)
    for k in range(1, top_runs):
        out.insert((start + k * len(out) // top_runs) % len(out) + 1, top_job)
    return out


def timed_run(jobs: list[dict], top: str, top_runs: int, seconds: float, workdir: Path,
              env: dict, deadline: float) -> dict:
    """Whole passes until `seconds` are measured, at least MIN_PASSES of them.

    A pass after the first starts only if one as long as the last still ends
    before `deadline`, so a slower program gives fewer passes rather than no
    result.  The host probe runs before the first job and after every
    stretch of every job (see spawn and scaled_times).  A job's median is over
    its scaled runs that passed.
    """
    order = schedule(jobs, top, top_runs)
    timeline: list[list] = []
    walls: list[float] = []
    peak_kib = 0
    outputs = Outputs()

    def probe() -> None:
        timeline.append(["probe", -1, host_probe()])

    spawn(["-m", "systolic.cli", "--version"], workdir / "warmup.out", env, deadline)
    start = time.perf_counter()
    passes, pass_s = 0, 0.0
    probe()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        if passes and time.monotonic() + pass_s > deadline:
            print(f"stopping after {passes} passes: another would pass the run's deadline",
                  file=sys.stderr)
            break
        pass_start = time.perf_counter()
        for job in order:
            path = workdir / f"{job['id']}.out"
            run = len(walls)

            def stretch(seconds: float, run: int = run) -> None:
                timeline.append(["job", run, seconds])
                probe()

            wall, rss, code = spawn(["-m", "systolic.cli", *job["argv"]], path, env, deadline,
                                    stretch)
            if code == -1:
                raise JobTimeout(job["id"])
            walls.append(wall)
            if job is not SETUP_JOB:
                peak_kib = max(peak_kib, rss)
            outputs.record(job, path, code)
        passes += 1
        pass_s = time.perf_counter() - pass_start
    measured = time.perf_counter() - start
    (workdir / "timeline.json").write_text(json.dumps(timeline))
    ok = outputs.verdicts({job["id"]: job for job in order})
    passed: dict[str, list[float]] = {job["id"]: [] for job in order}
    ran: dict[str, list[float]] = {job["id"]: [] for job in order}
    raw: dict[str, list[float]] = {job["id"]: [] for job in order}
    scaled = scaled_times(timeline, len(walls))
    for (job_id, *_), wall, job_s, good in zip(outputs.runs, walls, scaled, ok):
        raw[job_id].append(wall)
        ran[job_id].append(job_s)
        if good:
            passed[job_id].append(job_s)
    # A job none of whose runs passed still gets a median, so that every
    # metric is printed; such a run is not correct.
    medians = {job_id: statistics.median(passed[job_id] or ran[job_id])
               for job_id in ran}
    for job_id, median in medians.items():
        print(f"{job_id:24s} median {median:8.4f} s scaled, {statistics.median(raw[job_id]):8.4f} s"
              f" wall, over {len(passed[job_id])} passed of {len(ran[job_id])}", file=sys.stderr)
    probes = [seconds for kind, _, seconds in timeline if kind == "probe"]
    print(f"{passes} passes in {measured:.1f} s; host probe median {statistics.median(probes):.4f} s"
          f" (reference {PROBE_REFERENCE_S} s)", file=sys.stderr)
    metrics = {
        "setup_s": (medians["setup"], "s"),
        "pass_s": (sum(medians[job["id"]] for job in jobs), "s"),
        "top_job_s": (medians[top], "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    return {"attempted": len(ok), "failed": ok.count(False), "metrics": metrics}

"""rootclose benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Each workload is a closed loop with one client in this one
process: the next job starts when the previous one has been answered.
After set-up the run passes over the whole seeded job list once, and
again while another pass fits in ``--seconds``; later passes must
reproduce the first pass's answers.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with times in reference-machine seconds (see ``Clock``);
with ``--trace 1`` it carries the per-layer metrics of a traced pass
over the job list after an untraced pass over the same list.  The line
before it holds the run metadata and the outcome digest.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("valuation", "tower", "closure", "fontaine", "witt", "parser", "report", "cli")
SETUP_REPEATS = 9
#: Time of one ``reference_kernel`` on the reference machine, a shared
#: 2-core x86-64 VM with Python 3.11 in its fast spells: end-to-end times
#: are in seconds of that machine.
REFERENCE_S = 0.0075
#: Wall time between two kernel runs while the clock samples.
SAMPLE_EVERY_S = 0.1

#: End-to-end metrics of an untraced run: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p90_ms", "ms", "lower"),
    ("recheck_s", "s", "lower"),
    ("evidence_kb", "KiB", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile: the sample of rank ceil(pct * n / 100),
    so floor((100 - pct) * n / 100) samples lie beyond it; with 100
    samples, ten lie beyond p90."""
    ordered = sorted(samples)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


_KERNEL_FACTORS = tuple(
    {(i, i % r, i % 3): b ** (40 + i % 60) for i in range(120)} for b, r in ((3, 5), (5, 7))
)


def reference_kernel() -> int:
    """Fixed work in the style of the tower kernels, a sparse product of
    two polynomials in dicts on tuple keys with integer coefficients of
    64 to 230 bits, that runs no rootclose code."""
    f, g = _KERNEL_FACTORS
    out: dict = {}
    for (a1, b1, c1), x in f.items():
        for (a2, b2, c2), y in g.items():
            k = (a1 + a2, (b1 + b2) % 3, (c1 + c2) % 3)
            out[k] = out.get(k, 0) + x * y
    return len(out)


class Clock:
    """Wall-clock intervals converted to reference-machine seconds.

    The benchmark runs on shared machines whose speed swings by half and
    back within seconds, and drifts over minutes, with the program
    unchanged.  While it samples, the clock runs ``reference_kernel``
    every ``SAMPLE_EVERY_S`` from a timer signal, between jobs and inside
    them alike.  An interval's time, less the kernel runs inside it, is
    divided by the mean kernel time inside and around it: every run
    inside, the last run before and the first after, and every run within
    the interval's own length of either end.  The mean, not the median,
    because the interval's time is a sum over the machine's fast and slow
    spells.  The job and the kernel slow down together, so the ratio
    stays put when the machine's speed changes, while a change of the
    program moves the interval and not the kernel.
    """

    def __init__(self):
        self.runs: list[tuple[float, float]] = []  # (start, end), in order
        self.ends: list[float] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            reference_kernel()
            t1 = perf_counter()
            self.runs.append((t0, t1))
            self.ends.append(t1)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample now, every ``SAMPLE_EVERY_S`` while the block runs, and
        once more when it ends."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _around(self, t0: float, t1: float) -> tuple[int, int, int, int]:
        """Indices lo <= i <= j <= hi: runs[i:j] lie inside [t0, t1] and
        runs[lo:hi] are the ones the interval is divided by."""
        i = bisect.bisect_right(self.ends, t0)
        j = i
        while j < len(self.runs) and self.runs[j][0] < t1:
            j += 1
        lo, hi = max(i - 1, 0), min(j + 1, len(self.runs))
        while lo > 0 and self.runs[lo - 1][1] >= t0 - (t1 - t0):
            lo -= 1
        while hi < len(self.runs) and self.runs[hi][0] <= t1 + (t1 - t0):
            hi += 1
        return lo, i, j, hi

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time inside and around [t0, t1]."""
        lo, _, _, hi = self._around(t0, t1)
        return statistics.fmean(end - start for start, end in self.runs[lo:hi])

    def reference_s(self, t0: float, t1: float) -> float:
        """The time spent in [t0, t1] outside the kernel, in
        reference-machine seconds."""
        _, i, j, _ = self._around(t0, t1)
        wall = t1 - t0 - sum(end - start for start, end in self.runs[i:j])
        return wall * REFERENCE_S / self.kernel_s(t0, t1)


def fresh_import() -> dict:
    """Import the package as a new process would, dropping any copy a
    previous set-up loaded."""
    for name in [n for n in sys.modules if n == "rootclose" or n.startswith("rootclose.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return {name: importlib.import_module(f"rootclose.{name}") for name in MODULES}


def setup(workload, seed: int):
    """Import, generate the inputs and fill the Witt-polynomial cache.

    Returns the modules, the job list, and the build time and term count
    of the polynomials."""
    rc = fresh_import()
    jobs = workload.jobs(seed)
    workload.prepare(rc, jobs)
    t0 = perf_counter()
    terms = 0
    for p, length in workload.witt_shapes:
        sums, prods = rc["witt"].witt_polynomials(p, length)
        terms += sum(len(poly) for poly in sums + prods)
    return rc, jobs, perf_counter() - t0, terms


def run_job(workload, rc, job):
    """Run one job and return its answer and its start and end times;
    an exception is an answer that counts as failed."""
    t0 = perf_counter()
    try:
        answer = workload.run(rc, job)
    except Exception as exc:  # recorded as a failed job, the run goes on
        answer = exc
    return answer, t0, perf_counter()


def check_job(workload, rc, job, answer) -> Outcome:
    if isinstance(answer, Exception):
        return Outcome(False, f"error {type(answer).__name__}: {answer}", 0, (0.0, 0.0))
    try:
        return workload.check(rc, job, answer)
    except Exception as exc:  # a malformed answer fails its job
        return Outcome(False, f"check error {type(exc).__name__}: {exc}", 0, (0.0, 0.0))


def digest(summaries: list[str]) -> str:
    h = hashlib.sha256()
    for s in summaries:
        h.update(s.encode() + b"\n")
    return h.hexdigest()[:24]


def timed_run(workload, rc, jobs, seconds: float, clock: Clock) -> dict:
    """Pass over the whole job list once, and again while one more pass,
    as long as the last one, ends within ``seconds``.  A job's time and re-check time are the medians over its
    runs, in reference-machine seconds; ``clock`` must have sampled
    around the run."""
    runs: dict = defaultdict(list)  # job index -> [(job interval, re-check interval)]
    evidence: dict = defaultdict(int)
    first: list[str] = []
    failed = attempted = passes = 0
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for job in jobs:
            answer, t0, t1 = run_job(workload, rc, job)
            out = check_job(workload, rc, job, answer)
            if passes == 0:
                first.append(out.summary)
                evidence[job.block] += out.evidence_bytes
            failed += not out.ok or out.summary != first[job.index]
            attempted += 1
            runs[job.index].append(((t0, t1), out.recheck))
        passes += 1
        now = perf_counter()
        if 2 * now - t_pass - t_start > seconds:
            break
    job_s, recheck = [], defaultdict(float)
    for job in jobs:
        job_s.append(statistics.median(clock.reference_s(*j) for j, _ in runs[job.index]))
        recheck[job.block] += statistics.median(clock.reference_s(*r) for _, r in runs[job.index])
    return {
        "job_s": job_s,
        "attempted": attempted,
        "failed": failed,
        "recheck_s": statistics.median(recheck.values()),
        "evidence_kb": statistics.fmean(evidence.values()) / 1024,
        "digest": digest(first),
        "passes": passes,
        "wall_s": perf_counter() - t_start,
    }


def one_pass(workload, rc, jobs, tr: tracing.Tracer | None = None):
    """Run every job once, then check the answers.  With a tracer the
    layers are wrapped while the jobs run and unwrapped before the
    checks, so that the checks add nothing to the trace."""
    answers = []
    busy = 0.0
    if tr is not None:
        tracing.install_layers(tr, rc)
    try:
        for job in jobs:
            if tr is not None:
                tr.job_id = job.index
            answer, t0, t1 = run_job(workload, rc, job)
            answers.append(answer)
            busy += t1 - t0
    finally:
        if tr is not None:
            tr.uninstall()
    return busy, [check_job(workload, rc, job, a) for job, a in zip(jobs, answers)]


def source_meta() -> dict:
    files = sorted((SRC / "rootclose").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": h.hexdigest()[:16], "commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from the
    files under .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rootclose" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rootclose sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    clock = Clock()
    setups = []
    with clock.sampling():
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            rc, jobs, polys_s, polys_terms = setup(workload, args.seed)
            setups.append((t0, perf_counter(), polys_s))
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **source_meta(),
        "jobs": len(jobs),
    }

    if args.trace:
        base_busy, base = one_pass(workload, rc, jobs)
        tr = tracing.Tracer()
        busy, traced = one_pass(workload, rc, jobs, tr)
        meta.update(
            digest=digest([out.summary for out in base]),
            traced_digest=digest([out.summary for out in traced]),
            spans=tr.span_count(),
            unwrapped=tr.missing,
        )
        failed = sum(not out.ok for out in base + traced)
        metrics = tracing.layer_metrics(
            tr, statistics.median(s[2] for s in setups), polys_terms, busy / base_busy
        )
        result = {
            "correct": failed == 0 and meta["digest"] == meta["traced_digest"],
            "attempted": 2 * len(jobs),
            "failed": failed,
            "metrics": metrics,
        }
    else:
        with clock.sampling():
            run = timed_run(workload, rc, jobs, args.seconds, clock)
        job_s = run["job_s"]
        meta.update(
            digest=run["digest"], samples=run["attempted"], passes=run["passes"],
            wall_s=run["wall_s"], kernel_s=statistics.median(e - s for s, e in clock.runs),
        )
        failed = run["failed"]
        values = {
            "setup_s": statistics.median(clock.reference_s(t0, t1) for t0, t1, _ in setups),
            "jobs_per_s": len(job_s) / sum(job_s),
            "job_p50_ms": percentile(job_s, 50) * 1000,
            "job_p90_ms": percentile(job_s, 90) * 1000,
            "recheck_s": run["recheck_s"],
            "evidence_kb": run["evidence_kb"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (run["attempted"] - failed) / run["attempted"],
        }
        result = {
            "correct": failed == 0,
            "attempted": run["attempted"],
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END},
        }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

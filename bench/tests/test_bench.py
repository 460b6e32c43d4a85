"""Tests of the benchmark itself: inputs, metric names, the span
arithmetic, the tail percentile, the correctness gate and the tracer."""

import json
import re
import time

import pytest

import run
import tracer
import workloads
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def specs(jobs):
    return [(job.block, job.kind, repr(job.spec)) for job in jobs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_job_list(name):
    wl = WORKLOADS[name]
    assert specs(wl.jobs(1)) == specs(wl.jobs(1))
    assert specs(wl.jobs(1)) != specs(wl.jobs(2))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_blocks_share_one_mix(name):
    jobs = WORKLOADS[name].jobs(3)
    mixes = {}
    for job in jobs:
        mixes.setdefault(job.block, []).append(job.kind)
    assert len({tuple(sorted(kinds)) for kinds in mixes.values()}) == 1


def test_metric_names_and_benchmark_file():
    names = [m[0] for m in run.END_TO_END + tracer.PER_LAYER]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_self_time_of_a_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    names = ["root", "a", "b", "c"]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    own, total = tracer.self_times(names, parents, starts, ends)
    assert own == {"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}
    assert total == {"root": 10.0, "a": 3.0, "b": 4.0, "c": 2.0}


def test_self_time_counts_a_nested_name_once():
    own, total = tracer.self_times(["f", "f"], [-1, 0], [0.0, 1.0], [4.0, 2.0])
    assert own == {"f": 4.0}  # 3 s outside the inner span, 1 s inside
    assert total == {"f": 4.0}


@pytest.mark.parametrize("n", [100, 101, 109, 110, 288, 384])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    p90 = run.percentile(samples, 90)
    assert sum(s > p90 for s in samples) >= 10
    assert run.percentile(samples, 50) == float(-(-n // 2))


def cheapest(name, kind):
    return next(job for job in WORKLOADS[name].jobs(5) if job.kind == kind)


def test_certify_counts_a_tampered_expectation_as_failed(rc):
    wl = WORKLOADS["certify"]
    job = cheapest("certify", "p5-d3-plain")
    answer = wl.run(rc, job)
    assert wl.check(rc, job, answer).ok
    assert not wl.check(rc, job, answer, expected=workloads.ALL_PASS).ok


def test_closure_query_counts_a_tampered_expectation_as_failed(rc):
    wl = WORKLOADS["closure-query"]
    job = cheapest("closure-query", "(1, 'relation', 3, 0)")
    answer = wl.run(rc, job)
    out = wl.check(rc, job, answer)
    assert out.ok
    m = workloads.smallest_exponent(rc, workloads.cq_element(rc, job.spec), workloads.CQ_MMAX)
    wrong = 0 if m is None else None
    assert not wl.check(rc, job, answer, expected=(wrong,)).ok


def test_witt_kernel_counts_a_tampered_expectation_as_failed(rc):
    wl = WORKLOADS["witt-kernel"]
    job = cheapest("witt-kernel", "((5, 3, 2, 4), 0)")
    wl.prepare(rc, [job])
    answer = wl.run(rc, job)
    assert wl.check(rc, job, answer).ok
    steps, depth, exhausted = workloads.WK_EXPECTED[job.spec[0]]
    assert not wl.check(rc, job, answer, expected=(steps + 1, depth, exhausted)).ok


def test_truncated_membership_agrees_with_the_library(rc):
    closure = rc["closure"]
    for job in WORKLOADS["closure-query"].jobs(9)[:24]:
        elem = workloads.cq_element(rc, job.spec)
        if len(elem.num.terms) > 3:
            continue  # keep the exact search cheap
        got = closure.membership(elem, workloads.CQ_MMAX)
        want = workloads.smallest_exponent(rc, elem, workloads.CQ_MMAX)
        assert getattr(got, "m", None) == want


def test_tracer_counts_layers_and_restores_every_binding(rc):
    wl = WORKLOADS["closure-query"]
    job = cheapest("closure-query", "(1, 'relation', 3, 0)")
    before = {id(v) for mod in rc.values() for v in vars(mod).values()}
    tr = tracer.Tracer()
    tracer.install_layers(tr, rc)
    try:
        assert rc["fontaine"].membership is rc["closure"].membership
        assert rc["fontaine"].membership.__wrapped__ is not None
        answer = wl.run(rc, job)
    finally:
        tr.uninstall()
    assert tr.missing == []
    assert {id(v) for mod in rc.values() for v in vars(mod).values()} == before
    assert not hasattr(rc["tower"].TowerElem.__mul__, "__wrapped__")
    assert wl.check(rc, job, answer).ok
    metrics = tracer.layer_metrics(tr, 0.0, 0, 1.0)
    assert list(metrics) == [m[0] for m in tracer.PER_LAYER]
    assert metrics["cli.main.calls"]["value"] == 1
    assert metrics["parser.parse.calls"]["value"] == 1
    assert metrics["closure.membership.calls"]["value"] == 1
    assert metrics["tower.ctx.created"]["value"] > 0
    assert metrics["valuation.check_prime.calls"]["value"] > 0


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "bench" / "no-such-src")
    code = run.main(["--workload", "certify", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


class FakeWorkload(workloads.Workload):
    """Three jobs of 10 ms answering their own index; ``drift`` makes the
    answers of the second pass differ."""

    name = "fake"

    def __init__(self, drift=False):
        self.drift = drift
        self.calls = 0

    def run(self, rc, job):
        self.calls += 1
        time.sleep(0.01)
        return job.index + (self.drift and self.calls > 3)

    def check(self, rc, job, answer, expected=None):
        t0 = time.perf_counter()
        time.sleep(0.001)
        return workloads.Outcome(True, str(answer), 1, (t0, time.perf_counter()))


def fake_jobs():
    return [workloads.Job(i, i // 2, "k", None) for i in range(3)]


def timed(workload, seconds):
    clock = run.Clock()
    with clock.sampling():
        return run.timed_run(workload, None, fake_jobs(), seconds, clock)


def test_timed_run_passes_while_the_next_pass_fits():
    out = timed(FakeWorkload(), 0.0)
    assert out["attempted"] == 3 and out["failed"] == 0 and out["passes"] == 1
    assert len(out["job_s"]) == 3 and all(t > 0 for t in out["job_s"])
    # blocks of two jobs and one job, one byte of evidence each
    assert out["evidence_kb"] == 1.5 / 1024
    assert out["recheck_s"] > 0
    out = timed(FakeWorkload(), 0.3)
    assert out["passes"] >= 3 and out["attempted"] == 3 * out["passes"]


def test_timed_run_fails_jobs_whose_answer_changes_between_passes():
    out = timed(FakeWorkload(drift=True), 0.2)
    assert out["passes"] >= 2 and out["failed"] == 3 * (out["passes"] - 1)


class FailingWorkload(FakeWorkload):
    def run(self, rc, job):
        raise ValueError("no answer")


def test_timed_run_counts_an_exception_as_failed():
    out = timed(FailingWorkload(), 0.0)
    assert out["attempted"] == 3 and out["failed"] == 3


def test_clock_divides_by_the_kernel_runs_around_an_interval():
    clock = run.Clock()
    # kernel runs of 1, 2, 4 and 8 s
    clock.runs = [(0.0, 1.0), (10.0, 12.0), (13.0, 17.0), (22.0, 30.0)]
    clock.ends = [end for _, end in clock.runs]
    # the last run before the interval and the first after it
    assert clock.kernel_s(12.2, 12.8) == 3.0
    assert clock.kernel_s(18.0, 20.0) == 6.0
    # and every run that ends or starts within the interval's length of it
    assert clock.kernel_s(17.0, 22.0) == 14.0 / 3
    assert clock.reference_s(18.0, 20.0) == 2.0 * run.REFERENCE_S / 6.0
    # runs inside the interval count towards the divisor, not the time
    assert clock.kernel_s(12.5, 20.0) == 14.0 / 3
    assert clock.reference_s(12.5, 20.0) == 3.5 * run.REFERENCE_S / (14.0 / 3)


def test_clock_samples_inside_a_long_interval_and_stops():
    clock = run.Clock()
    with clock.sampling():
        t0 = time.perf_counter()
        deadline = t0 + 4 * run.SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            pass
        t1 = time.perf_counter()
    inside = [r for r in clock.runs if t0 <= r[0] and r[1] <= t1]
    assert len(inside) >= 2
    assert 0 < clock.reference_s(t0, t1) < (t1 - t0) * run.REFERENCE_S / clock.kernel_s(t0, t1)
    n = len(clock.runs)
    time.sleep(2 * run.SAMPLE_EVERY_S)
    assert len(clock.runs) == n

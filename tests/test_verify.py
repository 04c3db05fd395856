"""``run_verify`` with its forked helper against every check run in-process.

The ``forked`` fixture makes ``run_verify`` fork its helper on any machine,
and asserts after the test that no child process and no descriptor is left.
"""

import errno
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from deadline import within
from test_faults import first_of_a_torsion_pair
from ttsupport import modcalc, verify
from ttsupport.cli import main
from ttsupport.report import CheckRecord

GOLDEN_VERIFY = Path(__file__).resolve().parent / "golden" / "verify_seed42_cases60_primes50.txt"


@pytest.fixture
def forked(monkeypatch):
    monkeypatch.setattr(verify, "_helper_can_help", lambda: True)
    fds = sorted(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.fixture
def no_fork(monkeypatch):
    """os.fork raises, so a test fails if run_verify calls it, and the
    process has two usable CPUs, so the test's own condition alone keeps
    the checks in-process."""

    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def in_process(seed, cases, primes_bound):
    ctx = verify.VerifyContext(seed, cases, primes_bound)
    return tuple(
        CheckRecord(f"{i:02d}.{rec.name}", rec.passed, rec.detail)
        for i, rec in enumerate(f(ctx) for f in verify.CHECKS)
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forked_records_are_the_in_process_records(forked, seed):
    assert verify.run_verify(seed, 60, 50).records == in_process(seed, 60, 50)


def test_forked_records_under_a_fault(forked, monkeypatch):
    # fails table-symmetry and kunneth-chain-oracle; no memoised value
    # holds a product of two torsion blocks of one prime
    monkeypatch.setattr(modcalc, "_products", first_of_a_torsion_pair)
    want = in_process(42, 60, 50)
    assert not all(rec.passed for rec in want)
    assert verify.run_verify(42, 60, 50).records == want


def test_both_processes_run_checks_and_the_order_is_kept(forked, monkeypatch):
    def check(i):
        def run(ctx):
            time.sleep(0.02)  # the helper starts long before the parent is done
            return CheckRecord(f"c{i}", True, f"{os.getpid()} {time.monotonic_ns()}")

        return run

    monkeypatch.setattr(verify, "CHECKS", [check(i) for i in range(24)])
    records = verify.run_verify(1, 60, 50).records
    assert [rec.name for rec in records] == [f"{i:02d}.c{i}" for i in range(24)]
    # each process claims the checks it runs in claim order
    position = {i: k for k, i in enumerate(verify.CLAIM_ORDER)}
    runs = {}
    for i, rec in enumerate(records):
        pid, when = rec.detail.split()
        runs.setdefault(pid, []).append((int(when), position[i]))
    assert len(runs) == 2 and str(os.getpid()) in runs
    for claimed in runs.values():
        assert [k for _, k in sorted(claimed)] == sorted(k for _, k in claimed)


def test_the_claim_order_is_a_permutation_of_the_checks():
    # a check left out would never run, and one listed twice would run twice
    assert sorted(verify.CLAIM_ORDER) == list(range(len(verify.CHECKS)))


def test_alone_the_checks_run_in_claim_order(no_fork, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ran = []

    def check(i):
        def run(ctx):
            ran.append(i)
            return CheckRecord(f"c{i}", True, f"{i} cases")

        return run

    monkeypatch.setattr(verify, "CHECKS", [check(i) for i in range(24)])
    records = verify.run_verify(1, 60, 50).records
    assert ran == list(verify.CLAIM_ORDER)
    assert [rec.name for rec in records] == [f"{i:02d}.c{i}" for i in range(24)]


def test_the_report_does_not_depend_on_the_claim_order(no_fork, monkeypatch, capsys):
    # the set algebra keeps complements and point sets from one check to the
    # next, so the first check to fill them must not change what another reads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(verify, "CLAIM_ORDER", verify.CLAIM_ORDER[::-1])
    assert main(["verify", "--seed", "42", "--cases", "60", "--primes-bound", "50"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == GOLDEN_VERIFY.read_bytes()


def test_alone_the_first_raising_check_in_claim_order_is_raised(no_fork, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def raising(i):
        def run(ctx):
            raise ValueError(f"check {i}")

        return run

    monkeypatch.setattr(verify, "CHECKS", [raising(i) for i in range(24)])
    with pytest.raises(ValueError, match=f"^check {verify.CLAIM_ORDER[0]}$"):
        verify.run_verify(1, 60, 50)


def test_a_helper_that_dies_costs_only_time(forked, monkeypatch):
    parent = os.getpid()

    def dying(check):
        def run(ctx):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return check(ctx)

        return run

    monkeypatch.setattr(verify, "CHECKS", [dying(f) for f in verify.CHECKS])
    assert verify.run_verify(1, 60, 50).records == in_process(1, 60, 50)


def test_a_failed_fork_runs_every_check_in_process(forked, monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert verify.run_verify(2, 60, 50).records == in_process(2, 60, 50)


def test_a_check_that_raises_reaches_the_caller(forked, monkeypatch):
    def broken(ctx):
        raise ValueError("no such block")

    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:5] + [broken] + verify.CHECKS[6:])
    with pytest.raises(ValueError, match="^no such block$") as caught:
        verify.run_verify(1, 60, 50)
    assert caught.traceback[-1].name == "broken"


def test_an_expired_deadline_leaves_no_process(forked, monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [lambda ctx: time.sleep(30)] * 24)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        within(1, lambda: verify.run_verify(1, 60, 50))
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_a_traced_or_profiled_run_stays_in_process(no_fork, hook):
    get, put = getattr(sys, f"get{hook[3:]}"), getattr(sys, hook)
    previous = get()
    put(previous or (lambda frame, event, arg: None))
    try:
        records = verify.run_verify(1, 60, 50).records
    finally:
        put(previous)
    assert records == in_process(1, 60, 50)


@pytest.mark.parametrize("affinity", [True, False])
def test_one_usable_cpu_stays_in_process(no_fork, monkeypatch, affinity):
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify.run_verify(1, 60, 50).records == in_process(1, 60, 50)


@pytest.mark.parametrize("procfs", [True, False])
def test_a_second_thread_stays_in_process(no_fork, monkeypatch, procfs):
    if not procfs:
        def listdir(path):
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", path)

        monkeypatch.setattr(os, "listdir", listdir)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        records = verify.run_verify(1, 60, 50).records
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert records == in_process(1, 60, 50)


def test_a_plain_process_with_two_cpus_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    trace, profile = sys.gettrace(), sys.getprofile()
    sys.settrace(None)
    sys.setprofile(None)
    try:
        can = verify._helper_can_help()
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)
    assert can

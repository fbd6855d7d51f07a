"""The two-thread normal draw gives the serial draw's bytes and state, and
the forked job leaves no process, file or CPU set behind."""

import bisect
import importlib
import io
import os
import tempfile
import time
import warnings

import numpy as np
import pytest

from causalboot.rng import _SPLIT_VALUES, _forked, _standard_normal, _together, stream
from forks import counting_forks, two_cpus

# the module, which holds the threshold and piece size the tests patch
rng_module = importlib.import_module("causalboot.rng")


def serial(seed, shape, before):
    """The draw made one call after the other: ``before`` uniforms, one
    raw output apiece, then the block; and the generator left after."""
    rng = stream(seed, "split")
    rng.random(before)
    return rng.standard_normal(shape), rng.bit_generator.state


def assert_serial(got, rng, want, state):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert repr(rng.bit_generator.state) == repr(state)


@pytest.mark.parametrize(
    "shape",
    [(_SPLIT_VALUES - 1,), (_SPLIT_VALUES,), (_SPLIT_VALUES // 4 + 1, 4)],
    ids=["below", "at", "above"],
)
@pytest.mark.parametrize("before", range(8))
def test_split_draw_equals_the_serial_draw(before, shape):
    # every offset of the block within Philox's four-output counter step,
    # twice over, and block sizes on both sides of the split
    rng = stream(3, "split")
    rng.random(before)
    got = _standard_normal(rng, shape)
    assert_serial(got, rng, *serial(3, shape, before))


def walk(monkeypatch, rng, size):
    """Draw ``size`` normals by ``_standard_normal`` and name the way its
    calling thread got back in step: every raw position it reads of its
    own generator after placing the second, and every mark the second
    reads of its own, tell which."""
    reads = []
    raw_position = rng_module._raw_position

    def spy(bit_generator):
        position = raw_position(bit_generator)
        reads.append((bit_generator is rng.bit_generator, position))
        return position

    monkeypatch.setattr(rng_module, "_raw_position", spy)
    got = _standard_normal(rng, (size,))
    own = [position for mine, position in reads if mine][1:]
    marks = sorted(position for mine, position in reads if not mine)
    if own[-1] not in marks:
        return got, "serial finish"
    if len(own) == 1:
        return got, "zero shift" if own[0] == marks[0] else "landing"
    aims = [marks[bisect.bisect_left(marks, p)] for p in own[:-1]]
    overshot = any(after > aim for aim, after in zip(aims, own[1:]))
    return got, "overshoot" if overshot else "landing"


@pytest.mark.parametrize(
    "seed, before, piece, size, path",
    [
        (2, 0, 2, 41, "landing"),  # walks onto a later mark
        (9898, 0, 2, 41, "overshoot"),  # a normal it walks over spans a mark
        (29421, 1, 2, 41, "overshoot"),
        (0, 0, 2, 41, "zero shift"),  # the head ends on the first mark
        (4, 0, 8, 9, "serial finish"),  # the head outruns the one mark
        (1704, 3, 2, 41, "serial finish"),  # the walk would overwrite its aim
    ],
)
def test_every_way_back_into_step_gives_the_serial_draw(
    monkeypatch, seed, before, piece, size, path
):
    # a small threshold and piece size put every branch of the walk
    # within a few dozen values; the uniforms drawn first move the block
    # within the counter step, which changes the way, never the bytes
    monkeypatch.setattr(rng_module, "_SPLIT_VALUES", 8)
    monkeypatch.setattr(rng_module, "_PIECE", piece)
    rng = stream(seed, "split")
    rng.random(before)
    got, way = walk(monkeypatch, rng, size)
    assert way == path
    assert_serial(got, rng, *serial(seed, (size,), before))


def test_a_generator_other_than_philox_draws_serially(monkeypatch):
    def no_thread(first, second=None):
        raise AssertionError("a second thread was started")

    monkeypatch.setattr(rng_module, "_together", no_thread)
    rng, want = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
    rng.random()
    want.random()
    got = _standard_normal(rng, (_SPLIT_VALUES,))
    assert_serial(got, rng, want.standard_normal(_SPLIT_VALUES), want.bit_generator.state)


def test_the_buffered_half_of_a_raw_output_survives_the_split():
    # a 32-bit draw keeps the other half of its raw output for the next
    # one; normals never read it, so the state after keeps it too
    rng, want = stream(4, "split"), stream(4, "split")
    rng.integers(2**32, dtype=np.uint32)
    want.integers(2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    got = _standard_normal(rng, (_SPLIT_VALUES,))
    assert_serial(got, rng, want.standard_normal(_SPLIT_VALUES), want.bit_generator.state)


# --- _forked ----------------------------------------------------------------

needs_two_cpus = pytest.mark.skipif(
    not two_cpus(), reason="the split needs os.fork and two CPUs"
)


def lines(out, lo, hi):
    """Work over a range: one line of varying length per index."""
    out.writelines(f"{i}:{'x' * (i % 4)}\n" for i in range(lo, hi))


def failing_in_a_child(mp):
    parent = os.getpid()

    def work(out, lo, hi):
        if os.getpid() != parent:
            out.write("part\n")
            raise RuntimeError("fault in the child")
        lines(out, lo, hi)

    return work


def no_spill(mp):
    def refused(*args, **kwargs):
        raise OSError("no room for a spill")

    mp.setattr(tempfile, "TemporaryFile", refused)
    return lines


def one_cpu(mp):
    mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    return lines


def no_fork(mp):
    mp.delattr(os, "fork", raising=False)
    return lines


@pytest.mark.parametrize("n", range(10))
@pytest.mark.parametrize(
    "way, forks",
    [(lambda mp: lines, 1), (failing_in_a_child, 1), (no_spill, 0), (one_cpu, 0), (no_fork, 0)],
    ids=["forked", "child-fails", "no-spill", "one-cpu", "no-fork"],
)
def test_every_way_writes_the_serial_text(monkeypatch, n, way, forks):
    serial = io.StringIO()
    lines(serial, 0, n)
    pids = counting_forks(monkeypatch) if hasattr(os, "fork") else []
    work = way(monkeypatch)
    out = io.StringIO()
    _forked(work, n, out)
    assert out.getvalue() == serial.getvalue()
    assert len(pids) == (forks if n >= 2 and two_cpus() else 0)
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@needs_two_cpus
def test_the_callers_half_comes_before_the_childs():
    parent = os.getpid()

    def work(out, lo, hi):
        who = "caller" if os.getpid() == parent else "child"
        out.writelines(f"{i} {who}\n" for i in range(lo, hi))

    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _forked(work, 5, out)
    assert out.getvalue() == "0 caller\n1 caller\n2 caller\n3 child\n4 child\n"


@needs_two_cpus
def test_a_binary_file_gets_a_binary_spill():
    parent = os.getpid()

    def work(out, lo, hi):
        who = b"caller" if os.getpid() == parent else b"child"
        out.writelines(b"%d %s\n" % (i, who) for i in range(lo, hi))

    out = io.BytesIO()
    _forked(work, 5, out)
    assert out.getvalue() == b"0 caller\n1 caller\n2 caller\n3 child\n4 child\n"


@needs_two_cpus
def test_a_failed_child_leaves_the_caller_its_half():
    parent, cpus, calls = os.getpid(), os.sched_getaffinity(0), []

    def work(out, lo, hi):
        if os.getpid() != parent:
            raise RuntimeError("fault in the child")
        calls.append((lo, hi, os.sched_getaffinity(0)))
        lines(out, lo, hi)

    out = io.StringIO()
    _forked(work, 5, out)
    want = io.StringIO()
    lines(want, 0, 5)
    assert out.getvalue() == want.getvalue()
    # the caller's half on its share of the CPUs, then the rest on all
    low = set(sorted(cpus)[: len(cpus) // 2])
    assert calls == [(0, 3, low), (3, 5, cpus)]


@needs_two_cpus
@pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
def test_a_fault_in_the_caller_kills_and_reaps_the_child(tmp_path, monkeypatch, fault):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spills, spill_file = [], tempfile.TemporaryFile

    def noted(*args, **kwargs):
        spills.append(spill_file(*args, **kwargs))
        return spills[-1]

    pids = counting_forks(monkeypatch)
    monkeypatch.setattr(tempfile, "TemporaryFile", noted)
    cpus = os.sched_getaffinity(0)

    def work(out, lo, hi):
        if lo == 0:
            raise fault("fault in the caller")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(fault):
        _forked(work, 2, io.StringIO())
    assert time.monotonic() - start < 30  # killed, not waited for
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
    assert os.sched_getaffinity(0) == cpus
    assert [spill.closed for spill in spills] == [True]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_never_forks(monkeypatch, n):
    def forked():
        raise AssertionError("a process was forked")

    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", forked)
    calls = []
    _forked(lambda out, lo, hi: calls.append((lo, hi)), n, io.StringIO())
    assert calls == [(0, n)]


def test_a_refused_cpu_set_still_runs_both_jobs(monkeypatch):
    refused, ran = [], []

    def refuse(pid, cpus):
        refused.append(sorted(cpus))
        raise OSError("cpu set refused")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    _together(lambda: ran.append("first"), lambda: ran.append("second"))
    assert sorted(ran) == ["first", "second"]
    # each thread's half, then the caller's whole set back
    assert sorted(refused) == [[0], [0, 1], [1]]

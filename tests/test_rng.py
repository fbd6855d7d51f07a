"""The two-thread normal draw gives the serial draw's bytes and state, and
the forked job leaves no process, file or CPU set behind."""

import bisect
import importlib
import os
import tempfile
import time
import warnings

import numpy as np
import pytest

from causalboot.rng import _SPLIT_VALUES, _forked, _standard_normal, _together, stream

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

two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="the split needs os.fork and two CPUs",
)


@two_cpus
def test_forked_returns_the_childs_text_rewound():
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spill = _forked(lambda: calls.append(os.getpid()), lambda out: out.write("tail\n" * 3))
    with spill:
        assert spill.read() == "tail\n" * 3
    assert calls == [os.getpid()]


@two_cpus
def test_a_failed_child_returns_none():
    calls = []

    def second(out):
        out.write("part")
        raise RuntimeError("fault in the child")

    assert _forked(lambda: calls.append(1), second) is None
    assert calls == [1]


@two_cpus
@pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
def test_a_fault_in_the_caller_kills_and_reaps_the_child(tmp_path, monkeypatch, fault):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    pids, spills, fork, spill_file = [], [], os.fork, tempfile.TemporaryFile

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def noted(*args, **kwargs):
        spills.append(spill_file(*args, **kwargs))
        return spills[-1]

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(tempfile, "TemporaryFile", noted)
    cpus = os.sched_getaffinity(0)

    def first():
        raise fault("fault in the caller")

    start = time.monotonic()
    with pytest.raises(fault):
        _forked(first, lambda out: time.sleep(60))
    assert time.monotonic() - start < 30  # killed, not waited for
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
    assert os.sched_getaffinity(0) == cpus
    assert [spill.closed for spill in spills] == [True]
    assert list(tmp_path.iterdir()) == []


def test_no_second_job_runs_first_alone(monkeypatch):
    def no_fork():
        raise AssertionError("a process was forked")

    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", no_fork)
    calls = []
    assert _forked(lambda: calls.append(1)) is None
    assert calls == [1]


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

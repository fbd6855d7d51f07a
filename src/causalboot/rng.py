"""Deterministic random stream derivation, and the two-thread draws.

Every random draw in the package comes from a Philox counter-based
generator whose 64-bit key is derived by hashing a seed together with a
sequence of string/number labels.  Two runs with the same seed and labels
therefore produce identical draws, and adding a new labelled stream never
perturbs existing ones.

Philox reaches any position of its stream without drawing up to it, so
one large block of standard normals, ``simulate``'s features, can be
drawn by two threads from the same stream (``_standard_normal``).  The
package runs two jobs at once in one of two ways, both here and both
splitting the CPUs between them: ``_together`` for numpy work that
releases the interpreter lock, in a thread (the two halves of that
normal block, and ``cb_resample``'s classes two at a time), and
``_forked`` for Python work that holds it, in a forked process: given
``work(file, lo, hi)`` over a range, a child writes the second half of
the range to a spill that is appended to the caller's file, and
``_forked`` runs that half itself wherever the child cannot (the CSV
write's rows, and the experiment grid's (scenario, level) pairs).
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import signal
import tempfile
import threading
import warnings
from bisect import bisect_left

import numpy as np

# Fewest values a block of normals must hold to be drawn by two threads,
# and how many values the second thread draws between two marks of its
# position in the stream.
_SPLIT_VALUES = 1 << 20
_PIECE = 1 << 14

# Values a block-wise loop takes at once: a simulated column's or a
# resample's uniforms, or the scores of predict_proba's sigmoid.  The
# loop's temporaries are one block long whatever the row count.
_BLOCK = 1 << 16


def derive_key(*parts: object) -> int:
    """Hash ``parts`` (ints, floats, strings) into a stable 64-bit key."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def stream(*parts: object) -> np.random.Generator:
    """Return a Philox generator keyed by ``derive_key(*parts)``."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


def _pin(cpus) -> None:
    """Bind the calling thread to ``cpus``; placement is only a hint, so
    a set the kernel refuses leaves it to the kernel."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _together(first, second=None) -> None:
    """Run ``first`` in the calling thread while a thread runs
    ``second``, if given; either one's exception is raised once both
    finish.

    Where the process may use several CPUs (Linux), the two threads
    split them until both finish, and the calling thread then gets its
    whole set back: a thread starts on its creator's CPU, and a kernel
    that balances no load across CPUs (a cpuset with load balancing
    off) would leave both time-sharing that one CPU, slower than
    running one job after the other.
    """
    if second is None:
        return first()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    half = len(cpus) // 2
    errors = []

    def run_second():
        try:
            if half:
                _pin(cpus[half:])
            second()
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    worker = threading.Thread(target=run_second)
    worker.start()
    try:
        if half:
            _pin(cpus[:half])
        first()
    finally:
        worker.join()
        if half:
            _pin(cpus)
    if errors:
        raise errors[0]


def _forked(work, n: int, out) -> None:
    """Run ``work(file, lo, hi)`` over the range 0 to ``n`` into the text
    file ``out``: this process runs ``work(out, 0, m)``, m = ceil(n / 2),
    while a child forked for the purpose runs ``work(spill, m, n)``, with
    ``spill`` a text file that is never linked into any directory, and
    the spill is then appended to ``out``.

    Where the split cannot help or did not work (n < 2, no ``os.fork``,
    fewer than two CPUs, a spill that cannot be made, or a child that did
    not exit with status 0), this process runs what is left of the range
    itself, all of it where no child started, so ``out`` gets the same
    text every way.  The CPUs are split as ``_together`` splits them,
    and the caller gets its whole set back before any fallback.  The
    child always leaves through ``os._exit``, so it runs no exit handler
    and flushes no inherited buffer; an exception in this process's half
    (``KeyboardInterrupt`` included) kills and reaps it before it
    propagates.  The child's ``work`` must
    only compute from memory and write to the spill: a lock another
    thread held at the fork stays held in the child.  Threads the child
    starts itself (``_together``) are its own and take no such lock.
    """
    m = (n + 1) // 2
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    half = len(cpus) // 2
    spill = None
    if m < n and half and hasattr(os, "fork"):
        try:
            spill = tempfile.TemporaryFile("w+", newline="")
        except OSError:
            pass
    if spill is None:
        work(out, 0, n)
        return

    # Python 3.12 and later warn on a fork in a process with threads
    # (numpy's BLAS starts some at import).  The child is safe as long
    # as ``work`` keeps to the rule above: it then takes no lock
    # another thread may hold, and it leaves through os._exit.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _pin(cpus[half:])
            work(spill, m, n)
            spill.flush()
            code = 0
        finally:
            os._exit(code)

    with spill:
        try:
            _pin(cpus[:half])
            work(out, 0, m)
            _, status = os.waitpid(pid, 0)
        except BaseException:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already
            raise
        finally:
            _pin(cpus)
        if os.waitstatus_to_exitcode(status) == 0:
            spill.seek(0)
            shutil.copyfileobj(spill, out)
            return
    work(out, m, n)


def _raw_position(bit_generator: np.random.Philox) -> int:
    """How many 64-bit outputs the generator has handed out since its
    counter was 0: four per counter step, less those still buffered."""
    state = bit_generator.state
    words = state["state"]["counter"]
    counter = sum(int(word) << (64 * i) for i, word in enumerate(words))
    return 4 * counter + state["buffer_pos"] - 4


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """``rng.standard_normal(shape)``: the same bytes, dtype and final
    generator state, drawn by two threads when the block holds at least
    ``_SPLIT_VALUES`` values and ``rng`` is Philox.

    The head is the block's first half, ``h`` values; each normal takes
    one raw output or more, so after it the stream stands at least ``h``
    outputs on.  A second Philox with the same key starts there and
    draws the tail in pieces of ``_PIECE`` values, marking its position
    at the start of each.  The calling thread draws the head meanwhile,
    then walks on until its position equals a mark, so that piece and
    all after it are the serial draw's, and shifts them into place.  A
    walk that finds no mark it can reach without writing over the piece
    it aims at finishes the block serially.
    """
    size = math.prod(shape)
    bit_generator = rng.bit_generator
    if size < _SPLIT_VALUES or not isinstance(bit_generator, np.random.Philox):
        return rng.standard_normal(shape)

    out = np.empty(shape)
    flat = out.reshape(-1)
    head = size // 2
    start = _raw_position(bit_generator) + head
    tail = np.random.Philox(key=bit_generator.state["state"]["key"])
    tail.advance(start // 4)
    tail.random_raw(start % 4)
    marks = []

    def draw_tail():
        normals = np.random.Generator(tail)
        for lo in range(head, size, _PIECE):
            marks.append(_raw_position(tail))
            normals.standard_normal(out=flat[lo : lo + _PIECE])

    _together(lambda: rng.standard_normal(out=flat[:head]), draw_tail)

    done, position = head, _raw_position(bit_generator)
    k = bisect_left(marks, position)
    while k < len(marks) and marks[k] != position:
        # at most half the gap, so the walk overshoots a mark only where
        # a normal that takes several outputs spans it
        step = max(1, (marks[k] - position) // 2)
        if done + step > head + k * _PIECE:
            break
        rng.standard_normal(out=flat[done : done + step])
        done, position = done + step, _raw_position(bit_generator)
        k = bisect_left(marks, position)
    if k == len(marks) or marks[k] != position:
        rng.standard_normal(out=flat[done:])
        return out

    # piece k holds the values from index `done` on; a 1-D copy to lower
    # addresses runs front to back, so it needs no temporary
    shift = head + k * _PIECE - done
    if shift:
        flat[done : size - shift] = flat[done + shift :]
        np.random.Generator(tail).standard_normal(out=flat[size - shift :])
    # normals leave the generator's buffered 32-bit half as it was
    final, state = tail.state, bit_generator.state
    final["has_uint32"], final["uinteger"] = state["has_uint32"], state["uinteger"]
    bit_generator.state = final
    return out

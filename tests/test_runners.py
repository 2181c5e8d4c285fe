"""The walk's runners and arenas (``opnorm._walk``).

The tests set the usable cores to 2 (``opnorm._THREADS``), so a large
walk shares its blocks with a thread it starts and joins even on one
core, and most of them lower the thresholds of ``opnorm._walk`` (and the
reductions test the table caps) so that small inputs reach that thread.
Threaded and serial walks must agree bit for bit, whatever else runs in
the process, and no walk thread outlives its walk.
"""

import multiprocessing
import os
import resource
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import litt43
from litt43 import khinchin, opnorm
from litt43.forms import random_form


@pytest.fixture
def small_blocks(monkeypatch):
    """Thread every walk with two blocks or more, and give small inputs many blocks."""
    monkeypatch.setattr(opnorm, "_THREAD_ELEMENTS", 1)
    monkeypatch.setattr(opnorm, "_THREAD_WORK", 1)
    monkeypatch.setattr(opnorm, "_SIGN_TABLE_CAP", 2 ** 2)
    monkeypatch.setattr(opnorm, "_ROOT_TABLE_CAP", 8 ** 2)
    monkeypatch.setattr(khinchin, "_TABLE_CAP", 3 ** 3)
    monkeypatch.setattr(khinchin, "_AGM_TABLE_CAP", 8 ** 2)
    return monkeypatch


def _runner_threads(monkeypatch):
    """The names of the threads that run blocks, as a list that fills in."""
    names = []
    run_blocks = opnorm._run_blocks

    def spy(*args):
        names.append(threading.current_thread().name)
        return run_blocks(*args)

    monkeypatch.setattr(opnorm, "_run_blocks", spy)
    return names


def _grid_blocks(form, m):
    """The blocks of ``form``'s T_M walk under the current table cap."""
    return len(opnorm._grid_walk(form.entries[None], m, opnorm.DEFAULT_EVAL_BUDGET,
                                 opnorm._block_max))


def _reductions():
    """Each reducer of the walk on a stack, as raw bytes."""
    rng = np.random.default_rng(20)
    real = rng.standard_normal((3, 5, 7))
    cplx = random_form("complex", 5, 5, seed=21)  # 8^4 patterns: 8^2 blocks under small_blocks
    coeffs = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    bounds = litt43.complex_norm_bounds(cplx, 8, refine=True)
    return {
        "_block_max": opnorm._real_norms(real).tobytes(),
        "_block_argmax": np.array([bounds.lower, bounds.upper, bounds.discrete_norm]).tobytes(),
        "_block_sum": khinchin._mean_abs(coeffs, 3).tobytes(),
        "level_sums": b"".join(a.tobytes() for a in khinchin._quadrature(coeffs, 8)),
    }


def test_runners_leave_every_reduction_bit_equal(small_blocks):
    small_blocks.setattr(opnorm, "_THREADS", 1)
    serial = _reductions()
    small_blocks.setattr(opnorm, "_THREADS", 2)
    names = _runner_threads(small_blocks)
    threaded = _reductions()
    assert threaded == serial
    assert any(name != threading.current_thread().name for name in names)
    assert _grid_blocks(random_form("complex", 5, 5, seed=21), 8) == 8 ** 2


def test_serial_walks_stay_in_the_calling_thread(small_blocks):
    small_blocks.setattr(opnorm, "_THREADS", 1)
    names = _runner_threads(small_blocks)
    _reductions()
    assert names and set(names) == {threading.current_thread().name}


def test_a_held_up_runner_leaves_its_blocks_to_the_others(small_blocks):
    # runner 1 is held until the calling thread has run every block; the
    # walk then only waits for it, and its bits do not move
    real = np.random.default_rng(22).standard_normal((3, 5, 7))
    small_blocks.setattr(opnorm, "_THREADS", 1)
    serial = opnorm._real_norms(real).tobytes()
    small_blocks.setattr(opnorm, "_THREADS", 2)
    caller = threading.current_thread().name
    done = threading.Event()
    claimed = []
    run_blocks = opnorm._run_blocks

    def spy(table, offsets, claim, *rest):
        name = threading.current_thread().name
        if name != caller:
            assert done.wait(60)
        got = []

        def record():
            h = claim()
            if h is not None:
                got.append(h)
            return h

        run_blocks(table, offsets, record, *rest)
        claimed.append((name, got))
        if name == caller:
            done.set()  # the calling thread is through; let runner 1 start

    small_blocks.setattr(opnorm, "_run_blocks", spy)
    threaded = opnorm._real_norms(real).tobytes()
    assert threaded == serial
    assert claimed[0] == (caller, list(range(len(claimed[0][1]))))
    assert len(claimed) == 2 and len(claimed[0][1]) > 1 and claimed[1][1] == []
    assert claimed[1][0].startswith("litt43-walk")


@pytest.mark.parametrize("blocks", ["default", "small"])
def test_carving_leaves_every_reduction_bit_equal(monkeypatch, request, blocks):
    # _POOLED_ELEMENTS = 1: every walk carves its arrays; 2^62: none does
    if blocks == "small":
        request.getfixturevalue("small_blocks")
        monkeypatch.setattr(opnorm, "_THREADS", 2)
    monkeypatch.setattr(opnorm, "_POOLED_ELEMENTS", 1)
    carved = _reductions()
    monkeypatch.setattr(opnorm, "_POOLED_ELEMENTS", 2 ** 62)
    assert _reductions() == carved


def _walk_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("litt43-walk")]


def _fail(mods, arena):
    raise ArithmeticError("reduce failed")


def _in_fresh_thread(fn):
    """fn() in a thread of its own, whose arena starts empty."""
    caller = ThreadPoolExecutor(1)
    try:
        return caller.submit(fn).result(timeout=60)
    finally:
        caller.shutdown()


def _state():
    """(buffer bytes, runner buffer bytes, top) of the calling thread's arena."""
    arena = opnorm._THREAD_ARENA.arena
    return len(arena.buffer), [len(r.buffer) for r in arena.runners], arena.top


def test_walks_below_the_threshold_carve_nothing(small_blocks):
    # a fresh caller: its arena stays empty, and keeps no runner arena,
    # through threaded multi-block walks of fewer than _POOLED_ELEMENTS
    # table elements, and no walk, not even a failing one, leaves a scope
    # open; a failing walk that carves fills runner 1's arena too
    small_blocks.setattr(opnorm, "_THREADS", 2)
    names = _runner_threads(small_blocks)

    def walks():
        real = np.random.default_rng(23).standard_normal((3, 5, 7))  # 3 x 7 x 2^2 per block
        opnorm._real_norms(real)
        states = [_state()]
        large = np.random.default_rng(24).standard_normal((1024, 4))  # 1024 x 2^2 per block
        for rows in (real[0], large):
            with pytest.raises(ArithmeticError):
                opnorm._walk(rows[:, 0], rows[:, 1:], 2, opnorm._SIGN_TABLE_CAP, _fail)
            states.append(_state())
        return states

    small, failed, carved = _in_fresh_thread(walks)
    assert small == failed == (0, [], 0)
    assert carved[0] > 0 and carved[1][0] > 0 and carved[2] == 0
    assert len(set(names)) == 2


def _arenas_seen(walk):
    """[(thread name, arena)] of each reduction of ``walk(reduce)``, with the caller's arena."""
    seen = []

    def reduce(mods, arena):
        seen.append((threading.current_thread().name, arena))
        return mods.max()

    walk(reduce)
    return seen, opnorm._THREAD_ARENA.arena


def test_reducers_get_an_arena_from_the_threshold_on(small_blocks):
    small_blocks.setattr(opnorm, "_THREADS", 1)
    rows = np.random.default_rng(26).standard_normal((1024, 4))  # 1024 x 2^2 per block

    def walks():
        return [_arenas_seen(lambda reduce: opnorm._walk(
                    r[:, 0], r[:, 1:], 2, opnorm._SIGN_TABLE_CAP, reduce))
                for r in (rows[:opnorm._POOLED_ELEMENTS // 4 - 1], rows)]

    (below, _), (above, arena) = _in_fresh_thread(walks)
    assert len(below) == len(above) == 2
    assert [a for _, a in below] == [None, None]
    assert all(a is arena for _, a in above) and arena.top == 0


def test_the_extra_runner_carves_from_the_callers_runner_arena(small_blocks):
    small_blocks.setattr(opnorm, "_THREADS", 2)
    rows = np.random.default_rng(27).standard_normal((1024, 5))  # 4 blocks of 1024 x 2^2
    started = threading.Event()

    def walk(reduce):
        def held(mods, arena):
            # the caller waits in its first block until runner 1 has one
            if threading.current_thread().name.startswith("litt43-walk"):
                started.set()
            else:
                assert started.wait(60)
            return reduce(mods, arena)

        opnorm._walk(rows[:, 0], rows[:, 1:], 2, opnorm._SIGN_TABLE_CAP, held)

    seen, arena = _in_fresh_thread(lambda: _arenas_seen(walk))
    runner = {a for name, a in seen if name.startswith("litt43-walk")}
    caller = {a for name, a in seen if not name.startswith("litt43-walk")}
    # runner 1 may claim every block before the caller claims one
    assert len(seen) == 4 and caller <= {arena} and len(arena.runners) == 1
    assert runner == {arena.runners[0]} and arena.runners[0] is not arena


def test_threaded_walks_reuse_and_release_their_arenas(small_blocks):
    # ten threaded walks, the fifth failing in runner 1: every walk starts
    # its runner at top 0, the arenas end with no scope open, and runner 1's
    # buffer keeps the size the first walk gave it
    small_blocks.setattr(opnorm, "_THREADS", 2)
    rows = np.random.default_rng(28).standard_normal((1024, 5))  # 4 blocks of 1024 x 2^2

    def walks():
        started = threading.Event()

        def fail_in_runner(mods, arena):
            if threading.current_thread().name.startswith("litt43-walk"):
                started.set()
                _fail(mods, arena)
            assert started.wait(60)  # runner 1 gets a block before the caller's first returns
            return mods.max()

        sizes = []
        for i in range(10):
            reduce = fail_in_runner if i == 4 else opnorm._block_max
            try:
                opnorm._walk(rows[:, 0], rows[:, 1:], 2, opnorm._SIGN_TABLE_CAP, reduce)
            except ArithmeticError:
                assert i == 4
            sizes.append(len(opnorm._THREAD_ARENA.arena.runners[0].buffer))
        arena = opnorm._THREAD_ARENA.arena
        return sizes, arena.top, [r.top for r in arena.runners]

    sizes, top, runner_tops = _in_fresh_thread(walks)
    assert sizes[0] > 0 and sizes == [sizes[0]] * 10
    assert top == 0 and runner_tops == [0]


def test_no_walk_thread_outlives_its_walk(small_blocks):
    # the walk joins its runners whether it returns or raises, and a
    # runner's exception reaches the caller
    small_blocks.setattr(opnorm, "_THREADS", 2)
    names = _runner_threads(small_blocks)
    _reductions()
    assert any(name.startswith("litt43-walk") for name in names)
    assert _walk_threads() == []
    caller = threading.current_thread()

    def fail_in_runner(mods, arena):
        if threading.current_thread() is not caller:
            _fail(mods, arena)
        return mods.max()

    rows = np.random.default_rng(25).standard_normal((1024, 4))
    for reduce in (_fail, fail_in_runner):
        with pytest.raises(ArithmeticError, match="reduce failed"):
            opnorm._walk(rows[:, 0], rows[:, 1:], 2, opnorm._SIGN_TABLE_CAP, reduce)
        assert _walk_threads() == []


def test_concurrent_callers_keep_their_own_workspaces(monkeypatch):
    # three caller threads walk tables carved from their arenas at once,
    # two of them with a runner thread's help; a shared arena would mix them
    monkeypatch.setattr(opnorm, "_THREADS", 2)
    monkeypatch.setattr(opnorm, "_THREAD_ELEMENTS", 1)
    monkeypatch.setattr(opnorm, "_THREAD_WORK", 1)
    monkeypatch.setattr(opnorm, "_ROOT_TABLE_CAP", 8 ** 4)
    cform = random_form("complex", 6, 6, seed=1)  # 8 blocks of 6 x 8^4
    rform = random_form("real", 14, 14, seed=2)   # one block of 14 x 2^13
    coeffs = np.random.default_rng(3).standard_normal(5) + 1j  # 64 blocks of 64^2
    jobs = {"complex": lambda: litt43.complex_norm_bounds(cform, 8).discrete_norm,
            "real": lambda: litt43.real_sup_norm(rform),
            "steinhaus": lambda: litt43.steinhaus_expectation(coeffs, q=64).value}
    names = _runner_threads(monkeypatch)
    expected = {"complex": jobs["complex"]()}
    assert _grid_blocks(cform, 8) == 8 and len(set(names)) == 2  # the complex walk threads
    expected.update((name, job()) for name, job in jobs.items() if name != "complex")
    got = {name: [] for name in jobs}

    def loop(name):
        for _ in range(10):
            got[name].append(jobs[name]())

    callers = [threading.Thread(target=loop, args=(name,)) for name in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for name in jobs:
        assert got[name] == [expected[name]] * 10


def _child_norms(seed):
    form = random_form("complex", 6, 6, seed=seed)  # 8 blocks of 6 x 8^4 at the test's cap
    return [litt43.complex_norm_bounds(form, 8).discrete_norm for _ in range(5)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_children_walk_after_a_threaded_parent(monkeypatch):
    # the parent's walks ran on two threads, joined before the fork; the
    # children inherit a copy of its arenas, and two of them walk at once
    monkeypatch.setattr(opnorm, "_THREADS", 2)
    monkeypatch.setattr(opnorm, "_THREAD_WORK", 1)
    monkeypatch.setattr(opnorm, "_ROOT_TABLE_CAP", 8 ** 4)
    names = _runner_threads(monkeypatch)
    expected = [_child_norms(seed) for seed in (1, 2)]
    assert len(set(names)) == 2 and _walk_threads() == []
    assert _grid_blocks(random_form("complex", 6, 6, seed=1), 8) == 8
    with multiprocessing.get_context("fork").Pool(2) as pool:
        got = pool.map_async(_child_norms, [1, 2]).get(timeout=60)
    assert got == expected


def test_smaller_walk_after_a_larger_one_keeps_fresh_process_bits():
    script = ("import litt43; "
              "print(litt43.real_sup_norm(litt43.random_form('real', 12, 12, seed=5)).hex())")
    src = os.path.dirname(os.path.dirname(os.path.abspath(litt43.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, check=True).stdout.strip()
    # the complex walk leaves its table, blocks and moduli in the arena
    cform = random_form("complex", 7, 7, seed=5)  # 8 blocks of 7 x 8^5
    assert _grid_blocks(cform, 8) == 8
    litt43.complex_norm_bounds(cform, 8)
    assert litt43.real_sup_norm(random_form("real", 12, 12, seed=5)).hex() == fresh


def _faults_per_call(fn, calls):
    for _ in range(3):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux fault counts")
@pytest.mark.parametrize("threads", [1, 2])
def test_warm_walks_take_no_fresh_pages(monkeypatch, threads):
    # a walk that allocated its tables per call faulted them back in after
    # every heap trim: about 100 faults per 12x12 norm, 12,000 per N = 6 quadrature
    monkeypatch.setattr(opnorm, "_THREADS", threads)
    form = random_form("real", 12, 12, seed=3)
    coeffs = np.random.default_rng(6).standard_normal(6) + 1j
    assert _faults_per_call(lambda: litt43.real_sup_norm(form), 50) <= 5
    # 256^3 = 2^24 terms on tables of 256^2: a walk that takes every runner
    # at the default thresholds
    with monkeypatch.context() as patch:
        names = _runner_threads(patch)
        litt43.e_m_average(coeffs[:4], 256)
    assert len(set(names)) == threads
    assert _faults_per_call(lambda: litt43.e_m_average(coeffs[:4], 256), 4) <= 5
    # Kluyver's Bessel integral allocates only chunk-sized arrays
    assert litt43.steinhaus_expectation(coeffs, q=36).method == "bessel"
    assert _faults_per_call(lambda: litt43.steinhaus_expectation(coeffs, q=36), 4) <= 5


def test_carved_arrays_start_on_cache_lines():
    # malloc aligns to 16 bytes; table steps written at that offset ran 24% slower
    arena = opnorm._Arena()
    sizes = [opnorm._POOLED_ELEMENTS + 1, 3 * opnorm._POOLED_ELEMENTS, 1 << 20]
    arrays = [arena.array((n,), dtype) for n, dtype in
              zip(sizes, map(np.dtype, (np.float64, np.complex128, np.float64)))]
    assert [a.ctypes.data % 64 for a in arrays] == [0, 0, 0]
    assert arrays[2].shape == (1 << 20,) and arrays[1].dtype == np.complex128

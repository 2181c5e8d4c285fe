"""The walk's runners and per-thread workspaces (``opnorm._walk``).

The tests set the usable cores to 2 (``opnorm._THREADS``), so a large
walk shares its blocks with the pool even on one core, and most of
them lower the thresholds of ``opnorm._walk`` (and the reductions test
the table caps) so that small inputs reach the pool.  Threaded and serial walks must agree bit
for bit, whatever else runs in the process.
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


def _reductions():
    """Each reducer of the walk on a stack, as raw bytes."""
    rng = np.random.default_rng(20)
    real = rng.standard_normal((3, 5, 7))
    cplx = random_form("complex", 3, 5, seed=21)
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


def test_serial_walks_stay_in_the_calling_thread(small_blocks):
    small_blocks.setattr(opnorm, "_THREADS", 1)
    names = _runner_threads(small_blocks)
    _reductions()
    assert names and set(names) == {threading.current_thread().name}


def test_a_held_up_runner_leaves_its_blocks_to_the_others(small_blocks):
    # the pool's one thread is busy until the calling thread has run every
    # block; the walk then only waits for it, and its bits do not move
    real = np.random.default_rng(22).standard_normal((3, 5, 7))
    small_blocks.setattr(opnorm, "_THREADS", 1)
    serial = opnorm._real_norms(real).tobytes()
    small_blocks.setattr(opnorm, "_THREADS", 2)
    pool = ThreadPoolExecutor(1)
    done = threading.Event()
    pool.submit(done.wait, 60)
    small_blocks.setattr(opnorm, "_runner_pool", lambda: pool)
    claimed = []
    run_blocks = opnorm._run_blocks

    def spy(*args):
        results = run_blocks(*args)
        claimed.append((threading.current_thread().name, [h for h, _ in results]))
        if len(claimed) == 1:
            done.set()  # the calling thread is through; let the pool thread start
        return results

    small_blocks.setattr(opnorm, "_run_blocks", spy)
    try:
        threaded = opnorm._real_norms(real).tobytes()
    finally:
        done.set()
        pool.shutdown()
    assert threaded == serial
    assert claimed[0] == (threading.current_thread().name, list(range(len(claimed[0][1]))))
    assert len(claimed[0][1]) > 1 and claimed[1][1] == []


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


def test_walks_below_the_threshold_carve_nothing(small_blocks):
    # a fresh caller and a fresh pool thread: their buffers stay empty
    # through threaded multi-block walks of fewer than _POOLED_ELEMENTS
    # table elements, and no walk, not even a failing one, leaves a scope open
    small_blocks.setattr(opnorm, "_THREADS", 2)
    pool = ThreadPoolExecutor(1)
    small_blocks.setattr(opnorm, "_runner_pool", lambda: pool)
    names = _runner_threads(small_blocks)

    def state():
        return len(opnorm._WORKSPACE.buffer), opnorm._WORKSPACE.top

    def fail(mods):
        raise ArithmeticError("reduce failed")

    def walks():
        real = np.random.default_rng(23).standard_normal((3, 5, 7))  # 3 x 7 x 2^2 per block
        opnorm._real_norms(real)
        small = [state(), pool.submit(state).result(timeout=60)]
        large = np.random.default_rng(24).standard_normal((1024, 4))  # 1024 x 2^2 per block
        for rows in (real[0], large):
            with pytest.raises(ArithmeticError):
                opnorm._walk(rows[:, 0], rows[:, 1:], 2, opnorm._SIGN_TABLE_CAP, fail)
            assert opnorm._WORKSPACE.top is None
        return small

    caller = ThreadPoolExecutor(1)
    try:
        assert caller.submit(walks).result(timeout=60) == [(0, None), (0, None)]
        assert pool.submit(state).result(timeout=60)[1] is None
    finally:
        caller.shutdown()
        pool.shutdown()
    assert len(set(names)) == 2


def test_concurrent_callers_keep_their_own_workspaces(monkeypatch):
    # three caller threads walk tables carved from their workspaces at
    # once, two of them with the pool's help; a shared workspace would mix them
    monkeypatch.setattr(opnorm, "_THREADS", 2)
    monkeypatch.setattr(opnorm, "_THREAD_ELEMENTS", 1)
    monkeypatch.setattr(opnorm, "_THREAD_WORK", 1)
    cform = random_form("complex", 2, 7, seed=1)  # 8 blocks of 2 x 8^5
    rform = random_form("real", 14, 14, seed=2)   # one block of 14 x 2^13
    coeffs = np.random.default_rng(3).standard_normal(5) + 1j  # 64 blocks of 64^2
    jobs = {"complex": lambda: litt43.complex_norm_bounds(cform, 8).discrete_norm,
            "real": lambda: litt43.real_sup_norm(rform),
            "steinhaus": lambda: litt43.steinhaus_expectation(coeffs, q=64).value}
    expected = {name: job() for name, job in jobs.items()}
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
    form = random_form("complex", 2, 7, seed=seed)
    return [litt43.complex_norm_bounds(form, 8).discrete_norm for _ in range(5)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_children_walk_after_a_threaded_parent(monkeypatch):
    # the children inherit the parent's pool object but none of its
    # threads, and a copy of its workspace; two of them walk at once
    monkeypatch.setattr(opnorm, "_THREADS", 2)
    monkeypatch.setattr(opnorm, "_THREAD_WORK", 1)
    expected = [_child_norms(seed) for seed in (1, 2)]
    assert opnorm._POOL is not None
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
    # the complex walk leaves its table, blocks and moduli in the workspace
    litt43.complex_norm_bounds(random_form("complex", 2, 6, seed=5), 16)
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
    assert _faults_per_call(lambda: litt43.steinhaus_expectation(coeffs, q=36), 4) <= 5


def test_carved_arrays_start_on_cache_lines():
    # malloc aligns to 16 bytes; table steps written at that offset ran 24% slower
    mark = opnorm._WORKSPACE.enter()
    try:
        sizes = [opnorm._POOLED_ELEMENTS + 1, 3 * opnorm._POOLED_ELEMENTS, 1 << 20]
        arrays = [opnorm._WORKSPACE.array((n,), dtype) for n, dtype in
                  zip(sizes, map(np.dtype, (np.float64, np.complex128, np.float64)))]
    finally:
        opnorm._WORKSPACE.release(mark)
    assert [a.ctypes.data % 64 for a in arrays] == [0, 0, 0]
    assert arrays[2].shape == (1 << 20,) and arrays[1].dtype == np.complex128

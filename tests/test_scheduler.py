"""Tests for the round-robin scheduler and syscall semantics."""

import pytest

from repro.virt import syscalls as sc
from repro.virt.process import SimProcess, SimThread, ThreadState
from repro.virt.scheduler import Scheduler, SyscallResult


def thread(name="t", affinity=None, process=None):
    return SimThread(iter(()), name=name, affinity=affinity,
                     process=process)


class TestPicking:
    def test_round_robin_order(self):
        sched = Scheduler(num_cores=1)
        a, b = thread("a"), thread("b")
        sched.add_thread(a)
        sched.add_thread(b)
        assert sched.pick_thread(0, 0) is a
        sched.deschedule(0)
        a.state = ThreadState.RUNNABLE
        sched._run_queue.append(a)
        assert sched.pick_thread(0, 0) is b

    def test_affinity_respected(self):
        sched = Scheduler(num_cores=2)
        pinned = thread("pinned", affinity={1})
        sched.add_thread(pinned)
        assert sched.pick_thread(0, 0) is None
        assert sched.pick_thread(1, 0) is pinned

    def test_pick_empty(self):
        assert Scheduler(1).pick_thread(0, 0) is None

    def test_pick_marks_running(self):
        sched = Scheduler(1)
        t = thread()
        sched.add_thread(t)
        sched.pick_thread(0, 5)
        assert t.state == ThreadState.RUNNING
        assert t.core == 0

    def test_add_requires_simthread(self):
        with pytest.raises(TypeError):
            Scheduler(1).add_thread("not a thread")


class TestPreemption:
    def test_preempt_after_quantum_with_waiters(self):
        sched = Scheduler(1, quantum=100)
        a, b = thread("a"), thread("b")
        sched.add_thread(a)
        sched.add_thread(b)
        sched.pick_thread(0, 0)
        assert sched.preempt_if_due(0, 50) is None      # quantum not up
        assert sched.preempt_if_due(0, 150) is a        # preempted
        assert a.state == ThreadState.RUNNABLE
        # b runs next, a is queued behind it.
        assert sched.pick_thread(0, 150) is b

    def test_no_preempt_without_waiters(self):
        sched = Scheduler(1, quantum=100)
        a = thread("a")
        sched.add_thread(a)
        sched.pick_thread(0, 0)
        assert sched.preempt_if_due(0, 1000) is None

    def test_no_preempt_for_affinity_mismatched_waiters(self):
        sched = Scheduler(2, quantum=100)
        a = thread("a")
        pinned = thread("p", affinity={1})
        sched.add_thread(a)
        sched.pick_thread(0, 0)
        sched.add_thread(pinned)
        assert sched.preempt_if_due(0, 1000) is None


class TestFutex:
    def test_wait_blocks_then_wake(self):
        sched = Scheduler(2)
        waiter, waker = thread("waiter"), thread("waker")
        sched.add_thread(waiter)
        sched.add_thread(waker)
        sched.pick_thread(0, 0)
        assert sched.handle_syscall(waiter, sc.FutexWait("k"), 100) == \
            SyscallResult.BLOCKED
        assert waiter.state == ThreadState.BLOCKED
        assert sched.handle_syscall(waker, sc.FutexWake("k"), 200) == \
            SyscallResult.CONTINUE
        assert waiter.state == ThreadState.RUNNABLE
        assert waiter.wake_cycle == 200 + sched.syscall_overhead

    def test_wake_before_wait_not_lost(self):
        """Semaphore-flavoured futex: a stored token satisfies the next
        wait immediately (no lost-wakeup races in workloads)."""
        sched = Scheduler(1)
        t = thread()
        sched.add_thread(t)
        sched.handle_syscall(t, sc.FutexWake("k"), 50)
        assert sched.handle_syscall(t, sc.FutexWait("k"), 100) == \
            SyscallResult.CONTINUE

    def test_wake_count_limits(self):
        sched = Scheduler(4)
        waiters = [thread("w%d" % i) for i in range(3)]
        waker = thread("waker")
        for t in waiters + [waker]:
            sched.add_thread(t)
        for t in waiters:
            sched.handle_syscall(t, sc.FutexWait("k"), 10)
        sched.handle_syscall(waker, sc.FutexWake("k", count=2), 20)
        states = [t.state for t in waiters]
        assert states.count(ThreadState.RUNNABLE) == 2
        assert states.count(ThreadState.BLOCKED) == 1


class TestBarrier:
    def test_last_arrival_releases_all(self):
        sched = Scheduler(4)
        threads = [thread("t%d" % i) for i in range(3)]
        for t in threads:
            sched.add_thread(t)
        assert sched.handle_syscall(threads[0], sc.Barrier("b", 3),
                                    100) == SyscallResult.BLOCKED
        assert sched.handle_syscall(threads[1], sc.Barrier("b", 3),
                                    150) == SyscallResult.BLOCKED
        assert sched.handle_syscall(threads[2], sc.Barrier("b", 3),
                                    300) == SyscallResult.CONTINUE
        assert threads[0].state == ThreadState.RUNNABLE
        assert threads[1].state == ThreadState.RUNNABLE
        # Released at the last arrival's cycle (plus overhead).
        assert threads[0].wake_cycle == 300 + sched.syscall_overhead

    def test_barrier_reusable_with_new_key(self):
        sched = Scheduler(2)
        a, b = thread("a"), thread("b")
        sched.add_thread(a)
        sched.add_thread(b)
        for phase in range(3):
            key = ("b", phase)
            assert sched.handle_syscall(a, sc.Barrier(key, 2), 10) == \
                SyscallResult.BLOCKED
            assert sched.handle_syscall(b, sc.Barrier(key, 2), 20) == \
                SyscallResult.CONTINUE
            a.state = ThreadState.RUNNABLE


class TestLocks:
    def test_uncontended_lock_is_nonblocking(self):
        sched = Scheduler(1)
        t = thread()
        sched.add_thread(t)
        assert sched.handle_syscall(t, sc.Lock("m"), 10) == \
            SyscallResult.CONTINUE

    def test_contended_lock_blocks_and_hands_off(self):
        sched = Scheduler(2)
        a, b = thread("a"), thread("b")
        sched.add_thread(a)
        sched.add_thread(b)
        sched.handle_syscall(a, sc.Lock("m"), 10)
        assert sched.handle_syscall(b, sc.Lock("m"), 20) == \
            SyscallResult.BLOCKED
        sched.handle_syscall(a, sc.Unlock("m"), 100)
        assert b.state == ThreadState.RUNNABLE
        # b now owns the lock: a would block.
        assert sched.handle_syscall(a, sc.Lock("m"), 200) == \
            SyscallResult.BLOCKED

    def test_unlock_by_non_owner_raises(self):
        sched = Scheduler(2)
        a, b = thread("a"), thread("b")
        sched.add_thread(a)
        sched.add_thread(b)
        sched.handle_syscall(a, sc.Lock("m"), 10)
        with pytest.raises(RuntimeError):
            sched.handle_syscall(b, sc.Unlock("m"), 20)

    def test_fifo_lock_handoff(self):
        sched = Scheduler(4)
        owner, w1, w2 = thread("o"), thread("w1"), thread("w2")
        for t in (owner, w1, w2):
            sched.add_thread(t)
        sched.handle_syscall(owner, sc.Lock("m"), 0)
        sched.handle_syscall(w1, sc.Lock("m"), 10)
        sched.handle_syscall(w2, sc.Lock("m"), 20)
        sched.handle_syscall(owner, sc.Unlock("m"), 50)
        assert w1.state == ThreadState.RUNNABLE
        assert w2.state == ThreadState.BLOCKED


class TestSleepAndMisc:
    def test_sleep_wakes_at_deadline(self):
        sched = Scheduler(1)
        t = thread()
        sched.add_thread(t)
        assert sched.handle_syscall(t, sc.Sleep(500), 100) == \
            SyscallResult.BLOCKED
        assert sched.pick_thread(0, 300) is None   # still asleep
        picked = sched.pick_thread(0, 700)
        assert picked is t
        assert t.wake_cycle == 600

    def test_next_wake_cycle(self):
        sched = Scheduler(1)
        t = thread()
        sched.add_thread(t)
        sched.handle_syscall(t, sc.Sleep(500), 100)
        assert sched.next_wake_cycle() == 600

    def test_spawn_adds_thread(self):
        sched = Scheduler(1)
        parent = thread("parent")
        sched.add_thread(parent)
        child_holder = []

        def factory():
            child = thread("child")
            child_holder.append(child)
            return child

        assert sched.handle_syscall(parent, sc.Spawn(factory), 40) == \
            SyscallResult.CONTINUE
        assert child_holder[0] in sched.threads

    def test_thread_exit(self):
        sched = Scheduler(1)
        t = thread()
        sched.add_thread(t)
        assert sched.handle_syscall(t, sc.ThreadExit(), 10) == \
            SyscallResult.EXITED
        assert t.state == ThreadState.DONE
        assert sched.all_done

    def test_gettime_and_yield_nonblocking(self):
        sched = Scheduler(1)
        t = thread()
        sched.add_thread(t)
        assert sched.handle_syscall(t, sc.GetTime(), 0) == \
            SyscallResult.CONTINUE
        assert sched.handle_syscall(t, sc.Yield(), 0) == \
            SyscallResult.CONTINUE

    def test_unknown_syscall(self):
        sched = Scheduler(1)
        t = thread()
        sched.add_thread(t)
        with pytest.raises(TypeError):
            sched.handle_syscall(t, object(), 0)


class TestProcessTree:
    def test_fork_tree_capture(self):
        root = SimProcess("bash")
        java = SimProcess("java", parent=root)
        SimProcess("child-cmd", parent=java)
        names = [p.name for p in root.tree()]
        assert names == ["bash", "java", "child-cmd"]

"""Unit tests for the Device Manager's task model."""

import pytest

from repro.core.device_manager import Operation, OpType, Task, TaskAccumulator
from repro.sim import Environment


def make_op(client="fn-1", queue_id=0, op_type=OpType.KERNEL, tag=None):
    return Operation(type=op_type, client=client, queue_id=queue_id, tag=tag)


class TestTask:
    def test_append_preserves_order(self):
        task = Task("fn-1", 0, 1)
        ops = [make_op(tag=i) for i in range(3)]
        for op in ops:
            task.append(op)
        assert [op.tag for op in task.operations] == [0, 1, 2]
        assert len(task.operations) == 3

    def test_append_wrong_client_rejected(self):
        task = Task("fn-1", 0, 1)
        with pytest.raises(ValueError):
            task.append(make_op(client="fn-2"))

    def test_append_wrong_queue_rejected(self):
        task = Task("fn-1", 0, 1)
        with pytest.raises(ValueError):
            task.append(make_op(queue_id=1))

    def test_task_ids_unique(self):
        # Tasks take their ids from their simulation: unique within it,
        # and the same in every run.
        for _ in range(2):
            acc = TaskAccumulator(Environment())
            first = acc.add(make_op(queue_id=0))
            second = acc.add(make_op(queue_id=1))
            assert (first.id, second.id) == (1, 2)

    def test_empty_flag(self):
        task = Task("fn-1", 0, 1)
        assert task.empty
        task.append(make_op())
        assert not task.empty


class TestTaskAccumulator:
    def test_ops_accumulate_per_client_queue(self):
        acc = TaskAccumulator(Environment())
        t1 = acc.add(make_op(client="a", queue_id=0, tag=1))
        t2 = acc.add(make_op(client="a", queue_id=0, tag=2))
        t3 = acc.add(make_op(client="b", queue_id=0, tag=3))
        assert t1 is t2
        assert t3 is not t1
        assert len(t1.operations) == 2

    def test_separate_queues_separate_tasks(self):
        acc = TaskAccumulator(Environment())
        t1 = acc.add(make_op(queue_id=0))
        t2 = acc.add(make_op(queue_id=1))
        assert t1 is not t2

    def test_flush_closes_task(self):
        acc = TaskAccumulator(Environment())
        acc.add(make_op(tag=1))
        task = acc.flush("fn-1", 0)
        assert task is not None
        assert len(task.operations) == 1
        # A new op after flush opens a fresh task.
        fresh = acc.add(make_op(tag=2))
        assert fresh is not task

    def test_flush_empty_returns_none(self):
        acc = TaskAccumulator(Environment())
        assert acc.flush("fn-1", 0) is None

    def test_flush_client_closes_all_queues(self):
        acc = TaskAccumulator(Environment())
        acc.add(make_op(queue_id=0))
        acc.add(make_op(queue_id=1))
        acc.add(make_op(client="other"))
        flushed = acc.flush_client("fn-1")
        assert len(flushed) == 2
        assert len(acc._open) == 1

    def test_write_op_needs_data(self):
        assert make_op(op_type=OpType.WRITE).needs_data()
        assert not make_op(op_type=OpType.READ).needs_data()

"""Tests for the message-passing simulation and sharded scaling on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendError, ScalingError, ShardError
from repro.graph import from_dense, sprand, sprand_rect
from repro.parallel.kernels import kernel_chunk_override
from repro.parallel.mpi_sim import SimComm, run_ranks
from repro.scaling import scale_sinkhorn_knopp
from repro.shard import shard_scale

#: Chunk size for the sharded-scaling checks: small enough that every
#: fixed case below splits into several chunks, so K > 1 plans hold rows.
CHUNK = 2


class TestCollectives:
    def test_allreduce_sum(self):
        def program(comm, value):
            total = yield from comm.allreduce(value)
            return total

        assert run_ranks(program, [1, 2, 3, 4]) == [10, 10, 10, 10]

    def test_allreduce_sum_arrays(self):
        def program(comm, value):
            total = yield from comm.allreduce(value)
            return total

        out = run_ranks(program, [np.arange(3), np.ones(3)])
        np.testing.assert_array_equal(out[0], [1, 2, 3])
        np.testing.assert_array_equal(out[1], [1, 2, 3])

    def test_allreduce_max(self):
        def program(comm, value):
            return (yield from comm.allreduce(value, op="max"))

        assert run_ranks(program, [3, 7, 5]) == [7, 7, 7]

    def test_allreduce_bad_op(self):
        def program(comm, value):
            return (yield from comm.allreduce(value, op="min"))

        with pytest.raises(BackendError):
            run_ranks(program, [1, 2])

    def test_allgather_ordered_by_rank(self):
        def program(comm, value):
            return (yield from comm.allgather(value * 10))

        assert run_ranks(program, [1, 2, 3]) == [[10, 20, 30]] * 3

    def test_bcast_from_root(self):
        def program(comm, _):
            return (yield from comm.bcast("payload" if comm.rank == 0 else None))

        assert run_ranks(program, [None, None, None]) == ["payload"] * 3

    def test_bcast_nonzero_root(self):
        def program(comm, _):
            value = {"rank": comm.rank} if comm.rank == 2 else None
            return (yield from comm.bcast(value, root=2))

        assert run_ranks(program, [0, 0, 0]) == [{"rank": 2}] * 3

    def test_barrier_and_rank_metadata(self):
        def program(comm, _):
            yield from comm.barrier()
            return (comm.rank, comm.size)

        assert run_ranks(program, [None] * 3) == [(0, 3), (1, 3), (2, 3)]

    def test_data_is_copied_across_ranks(self):
        """A rank mutating received data must not affect other ranks."""

        def program(comm, _):
            data = yield from comm.allgather(np.zeros(2))
            data[0][0] = comm.rank + 1.0  # mutate the received copy
            yield from comm.barrier()
            check = yield from comm.allgather(float(data[0][0]))
            return check

        out = run_ranks(program, [None, None])
        # Each rank sees its own mutation only.
        assert out[0] == [1.0, 2.0]

    def test_sequence_of_collectives(self):
        def program(comm, value):
            a = yield from comm.allreduce(value)
            b = yield from comm.allgather(a + comm.rank)
            c = yield from comm.allreduce(max(b), op="max")
            return c

        assert run_ranks(program, [1, 1]) == [3, 3]

    def test_mismatched_collectives_raise(self):
        def program(comm, _):
            if comm.rank == 0:
                yield from comm.allreduce(1)
            else:
                yield from comm.allgather(1)

        with pytest.raises(BackendError):
            run_ranks(program, [None, None])

    def test_mismatched_allreduce_ops_raise(self):
        """Same collective *kind* but different reduce ops is still a
        mismatch — op identity is part of the slot signature."""

        def program(comm, _):
            op = "sum" if comm.rank == 0 else "max"
            return (yield from comm.allreduce(1, op=op))

        with pytest.raises(BackendError, match="mismatch"):
            run_ranks(program, [None, None])

    def test_mismatched_bcast_roots_raise(self):
        def program(comm, _):
            root = comm.rank  # every rank nominates itself
            return (yield from comm.bcast(comm.rank, root=root))

        with pytest.raises(BackendError):
            run_ranks(program, [None, None])

    def test_bcast_root_without_payload_raises(self):
        def program(comm, _):
            return (yield from comm.bcast(None))  # no rank contributes

        with pytest.raises(BackendError):
            run_ranks(program, [None, None])

    def test_mismatched_collective_counts_raise(self):
        """One rank finishing while another still waits at a barrier is
        the classic hang; the simulator reports it instead of spinning."""

        def program(comm, _):
            yield from comm.barrier()
            if comm.rank == 0:
                yield from comm.barrier()  # extra round nobody joins
            return comm.rank

        with pytest.raises(BackendError):
            run_ranks(program, [None, None], max_steps=1000)

    def test_deadlock_detected_by_step_bound(self):
        def program(comm, _):
            if comm.rank == 0:
                yield from comm.barrier()  # rank 1 never joins
            return None

        with pytest.raises(BackendError):
            run_ranks(program, [None, None], max_steps=1000)

    def test_zero_ranks_rejected(self):
        with pytest.raises(BackendError):
            run_ranks(lambda c, a: iter(()), [])


class TestSingleRank:
    """Degenerate one-rank runs: every collective must be the identity."""

    def test_allreduce_identity(self):
        def program(comm, value):
            s = yield from comm.allreduce(value)
            m = yield from comm.allreduce(value, op="max")
            return (s, m)

        out = run_ranks(program, [np.array([1.0, 2.0])])
        np.testing.assert_array_equal(out[0][0], [1.0, 2.0])
        np.testing.assert_array_equal(out[0][1], [1.0, 2.0])

    def test_allgather_singleton(self):
        def program(comm, value):
            return (yield from comm.allgather(value))

        assert run_ranks(program, [42]) == [[42]]

    def test_bcast_self(self):
        def program(comm, _):
            return (yield from comm.bcast("solo"))

        assert run_ranks(program, [None]) == ["solo"]

    def test_barrier_no_deadlock(self):
        def program(comm, _):
            yield from comm.barrier()
            yield from comm.barrier()
            return comm.size

        assert run_ranks(program, [None], max_steps=100) == [1]


class TestDistributedScaling:
    """``shard_scale`` on the rank fabric (one rank per shard) against
    serial Sinkhorn–Knopp: bitwise in both factor vectors, exact in the
    error and the sweep count.  The small chunk grid makes multi-shard
    plans form on test-sized graphs; ``plan_shards`` leaves a shard empty
    when there are more shards than chunks."""

    @staticmethod
    def _assert_bitwise(g, iterations, n_shards):
        with kernel_chunk_override(CHUNK):
            serial = scale_sinkhorn_knopp(g, iterations)
            sharded = shard_scale(g, iterations, n_shards=n_shards)
        np.testing.assert_array_equal(sharded.dr, serial.dr)
        np.testing.assert_array_equal(sharded.dc, serial.dc)
        assert sharded.error == serial.error
        assert sharded.iterations == serial.iterations
        return sharded

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5])
    def test_matches_serial(self, n_ranks):
        self._assert_bitwise(sprand(300, 4.0, seed=0), 5, n_ranks)

    def test_rectangular(self):
        self._assert_bitwise(sprand_rect(120, 200, 3.0, seed=1), 4, 3)

    def test_empty_lines_tolerated(self):
        a = np.array([[1, 1, 0], [0, 0, 0], [0, 1, 0]])
        sharded = self._assert_bitwise(from_dense(a), 3, 2)
        assert np.isfinite(sharded.dr).all()
        assert np.isfinite(sharded.dc).all()

    def test_more_ranks_than_rows(self):
        self._assert_bitwise(sprand(5, 2.0, seed=0), 2, 16)

    def test_zero_iterations(self):
        sharded = self._assert_bitwise(sprand(50, 3.0, seed=0), 0, 2)
        np.testing.assert_array_equal(sharded.dr, np.ones(50))

    def test_bad_arguments(self):
        g = sprand(10, 2.0, seed=0)
        with pytest.raises(ScalingError):
            shard_scale(g, -1)
        with pytest.raises(ShardError):
            shard_scale(g, 2, n_shards=0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=120),
        degree=st.floats(min_value=1.0, max_value=6.0),
        iterations=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_ranks=st.integers(min_value=1, max_value=7),
    )
    def test_rank_count_never_changes_the_factors(
        self, n, degree, iterations, seed, n_ranks
    ):
        """Property: for any graph, budget, and shard count, the sharded
        sweep is bitwise equal to the serial one."""
        g = sprand(n, min(degree, float(n)), seed=seed)
        self._assert_bitwise(g, iterations, n_ranks)

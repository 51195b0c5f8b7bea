"""Figure 4 bench — KarpSipserMT / TwoSidedMatch scalability.

Benchmarks the serial KarpSipserMT kernel and its simulated engine, and
asserts the machine-model speedup shape of Figure 4a/4b
(KarpSipserMT scales slightly *better* than ScaleSK in the paper — guided
schedule, no barriers inside the loop).
"""

import pytest

from repro.core import (
    karp_sipser_mt,
    karp_sipser_mt_simulated,
    scaled_col_choices,
    scaled_row_choices,
)
from repro.core.karp_sipser_mt import karp_sipser_mt_work_profile
from repro.parallel import MachineModel
from repro.parallel.machine import ScheduleSpec
from repro.scaling import scale_sinkhorn_knopp
from repro.scaling.sinkhorn_knopp import sinkhorn_knopp_work_profile


@pytest.fixture(scope="module")
def mesh_choices(mesh_instance):
    scaling = scale_sinkhorn_knopp(mesh_instance, 1)
    rc = scaled_row_choices(mesh_instance, scaling.dr, scaling.dc, 0)
    cc = scaled_col_choices(mesh_instance, scaling.dr, scaling.dc, 1)
    return rc, cc


def test_bench_ks_mt_serial(benchmark, mesh_choices):
    rc, cc = mesh_choices
    m = benchmark(karp_sipser_mt, rc, cc)
    assert m.cardinality > 0


def test_bench_ks_mt_simulated_small(benchmark, mesh_instance):
    # The simulator steps every atomic op, so bench a smaller slice.
    from repro.graph import suite_instance

    g = suite_instance("venturiLevel3", n=2_000, seed=0)
    scaling = scale_sinkhorn_knopp(g, 1)
    rc = scaled_row_choices(g, scaling.dr, scaling.dc, 0)
    cc = scaled_col_choices(g, scaling.dr, scaling.dc, 1)
    serial = karp_sipser_mt(rc, cc).cardinality
    m = benchmark(
        lambda: karp_sipser_mt_simulated(rc, cc, 4, policy="random", seed=0)
    )
    assert m.cardinality == serial


def test_bench_fig4_speedup_shape(benchmark, mesh_instance, mesh_choices):
    """KarpSipserMT's modelled curve sits at/above ScaleSK's (paper)."""
    rc, cc = mesh_choices
    model = MachineModel()

    def curves():
        ks_prof = karp_sipser_mt_work_profile(rc, cc)
        guided = ScheduleSpec.guided(max(4, mesh_instance.nrows // 2048))
        ks = [
            model.speedup(ks_prof, p, schedule=guided, barriers=1)
            for p in (2, 4, 8, 16)
        ]
        sk_prof = sinkhorn_knopp_work_profile(mesh_instance)
        dyn = ScheduleSpec.dynamic(max(16, mesh_instance.nrows // 256))
        sk = [
            model.speedup(sk_prof, p, schedule=dyn, barriers=2)
            for p in (2, 4, 8, 16)
        ]
        return ks, sk

    ks, sk = benchmark.pedantic(curves, rounds=1, iterations=1)
    assert ks == sorted(ks)
    assert ks[-1] > 9.0                  # paper: ~11x average at p=16
    assert ks[-1] >= sk[-1] - 1.0        # KS-MT >= ScaleSK (within noise)

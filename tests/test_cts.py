"""The CTS workload layer: H-tree topologies at any depth, per-net
builder dispatch, and the multi-net driver's serial/parallel identity."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_instance
from repro.data import synth_placement
from repro.ebf import DelayBounds
from repro.geometry import Point, manhattan_radius_from
from repro.perf import SolveJournal, WorkerPool, cts_tasks, run_cts
from repro.topology import (
    AUTO_BIPARTITION_MAX_SINKS,
    AUTO_NN_MAX_SINKS,
    build_net_topology,
    htree_topology,
    all_sinks_are_leaves,
    topology_hash,
    validate_topology,
)
from repro.topology.builders import binary_merge_tree

_coord = st.floats(
    min_value=0.0, max_value=10_000.0, allow_nan=False, allow_infinity=False
)
_sink_lists = st.lists(
    st.tuples(_coord, _coord), min_size=1, max_size=130
).map(lambda pts: [Point(x, y) for x, y in pts])
_few = st.integers(0, 3).map(float)
_point_sets = st.one_of(
    _sink_lists,
    # duplicate-heavy: a 4 x 4 grid of locations
    st.lists(st.tuples(_few, _few), min_size=1, max_size=130).map(
        lambda pts: [Point(x, y) for x, y in pts]
    ),
    # collinear, on either axis, with repeats
    st.lists(_few | _coord, min_size=1, max_size=130).map(
        lambda xs: [Point(x, 0.0) for x in xs]
    ),
    st.lists(_few | _coord, min_size=1, max_size=130).map(
        lambda ys: [Point(-0.0, y) for y in ys]
    ),
    # coincident
    st.integers(1, 130).map(lambda m: [Point(5.0, 5.0)] * m),
)


def _recursive_htree(sinks, source):
    """The recursive H-tree builder the level sweep replaced, kept as the
    oracle its parents must match: one call per cut, merges numbered in
    the recursion's post-order."""
    m = len(sinks)
    if m == 1:
        return htree_topology(sinks, source)
    xs = np.array([p.x for p in sinks], dtype=float)
    ys = np.array([p.y for p in sinks], dtype=float)
    merges = []

    def cut(indices, vertical):
        if len(indices) == 1:
            return int(indices[0])
        key = xs[indices] if vertical else ys[indices]
        mid = (float(key.max()) + float(key.min())) / 2.0
        left_mask = key <= mid
        left, right = indices[left_mask], indices[~left_mask]
        if len(left) == 0 or len(right) == 0:
            order = indices[np.argsort(key, kind="stable")]
            half = len(order) // 2
            left, right = order[:half], order[half:]
        lt = cut(left, not vertical)
        rt = cut(right, not vertical)
        merges.append((lt, rt))
        return m + len(merges) - 1

    cut(np.arange(m), float(xs.max() - xs.min()) >= float(ys.max() - ys.min()))
    return binary_merge_tree(sinks, merges, source)[0]


def _parents(topo):
    return [topo.parent(k) for k in range(topo.num_nodes)]


#: perfbench's directory; its modules import one another by bare name.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def large_net_seed1():
    """perfbench's ``large-net`` workload on seed 1 with its first two
    nets (2048 sinks), as ``LargeNet.prepare`` builds them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    net = workloads.LargeNet(
        workloads.Sizes(large_pool=2), 1, tracing.Tracer(), PERFBENCH,
        PERFBENCH,
    )
    net.setup()
    net.prepare()
    return net


class TestHtreeTopology:
    @given(sinks=_sink_lists)
    @settings(max_examples=60, deadline=None)
    def test_any_depth_is_valid_full_binary_with_sink_leaves(self, sinks):
        topo = htree_topology(sinks, Point(5_000.0, 5_000.0))
        validate_topology(topo)
        assert all_sinks_are_leaves(topo)
        assert topo.num_sinks == len(sinks)

    @given(sinks=_sink_lists.filter(lambda s: len(s) >= 2))
    @settings(max_examples=30, deadline=None)
    def test_any_depth_passes_check_instance_clean(self, sinks):
        source = Point(5_000.0, 5_000.0)
        topo = htree_topology(sinks, source)
        radius = manhattan_radius_from(source, sinks)
        bounds = DelayBounds.uniform(len(sinks), 0.8 * radius, 1.2 * radius)
        report = check_instance(topo, bounds)
        assert report.ok, report.summary()

    def test_degenerate_geometry_still_terminates(self):
        # Coincident and collinear sinks defeat the geometric-center
        # cut; the median-split fallback must keep the recursion finite.
        for sinks in (
            [Point(5.0, 5.0)] * 33,
            [Point(float(i), 0.0) for i in range(64)],
            [Point(0.0, float(i % 2)) for i in range(50)],
        ):
            topo = htree_topology(sinks)
            validate_topology(topo)
            assert all_sinks_are_leaves(topo)

    def test_zero_sinks_rejected(self):
        with pytest.raises(ValueError):
            htree_topology([])

    @given(sinks=_point_sets, fixed=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_parents_match_the_recursive_builder(self, sinks, fixed):
        source = Point(5_000.0, 5_000.0) if fixed else None
        assert _parents(htree_topology(sinks, source)) == _parents(
            _recursive_htree(sinks, source)
        )

    @pytest.mark.parametrize("net, digest", [
        (0, "7e90109514ce331f1dca81418c61bdac35127cdc6a5c0e7247327183ff64eb99"),
        (1, "73e61ee6b57dbb67304d90ca678c8518738a31d487a212ee1069b98ce5de2f71"),
    ])
    def test_large_net_topologies_keep_their_hash(
        self, net, digest, large_net_seed1
    ):
        """perfbench ``large-net`` nets 0 and 1 of seed 1 (2048 sinks):
        its reference costs hold only for these exact trees."""
        sinks, _ = large_net_seed1.nets[net]
        topo = build_net_topology(sinks, large_net_seed1.source)
        assert topology_hash(topo) == digest


class TestBuildNetTopology:
    def test_auto_dispatch_by_sink_count(self):
        rng = np.random.default_rng(5)

        def sinks_of(m):
            return [Point(float(x), float(y))
                    for x, y in rng.uniform(0, 1000, (m, 2))]

        def same(a, b):
            return (
                [a.parent(k) for k in range(a.num_nodes)]
                == [b.parent(k) for k in range(b.num_nodes)]
                and a.num_sinks == b.num_sinks
            )

        small = sinks_of(AUTO_NN_MAX_SINKS)
        mid = sinks_of(AUTO_NN_MAX_SINKS + 1)
        big = sinks_of(AUTO_BIPARTITION_MAX_SINKS + 1)
        assert same(build_net_topology(small),
                    build_net_topology(small, kind="nn"))
        assert same(build_net_topology(mid),
                    build_net_topology(mid, kind="bipartition"))
        assert same(build_net_topology(big),
                    build_net_topology(big, kind="htree"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            build_net_topology([Point(0, 0)], kind="fishbone")


class TestRunCts:
    @pytest.fixture(scope="class")
    def placement(self):
        return synth_placement(nets=10, sinks_per_net=6, seed=42)

    def test_serial_and_parallel_costs_bit_identical(self, placement):
        serial = run_cts(placement)
        parallel = run_cts(placement, jobs=2)
        assert serial.ok and parallel.ok
        assert serial.nets == parallel.nets == 10
        for a, b in zip(serial.results, parallel.results):
            assert a.name == b.name
            assert a.cost == b.cost  # bit-identical, not just close

    def test_every_topology_kind_solves_clean(self, placement):
        for kind in ("auto", "nn", "bipartition", "htree"):
            report = run_cts(placement, topology=kind)
            assert report.ok, (kind, report.summary())

    def test_nets_cap_takes_a_file_order_prefix(self, placement):
        report = run_cts(placement, nets=4)
        assert report.nets == 4
        full = run_cts(placement)
        assert [r.name for r in report.results] == [
            r.name for r in full.results[:4]
        ]

    def test_journal_resume_replays_everything(self, placement, tmp_path):
        path = tmp_path / "cts.jsonl"
        with SolveJournal(path) as j:
            first = run_cts(placement, jobs=2, journal=j)
        assert first.appended == 10 and first.replayed == 0
        with SolveJournal(path) as j:
            second = run_cts(placement, jobs=2, journal=j)
        assert second.replayed == 10 and second.appended == 0
        assert [r.cost for r in first.results] == [
            r.cost for r in second.results
        ]

    def test_on_net_fires_per_completion(self, placement):
        names = []
        report = run_cts(placement, jobs=2, on_net=lambda r: names.append(r.name))
        assert sorted(names) == sorted(r.name for r in report.results)

    def test_shared_pool_is_reused_across_runs(self, placement):
        with WorkerPool(2) as pool:
            run_cts(placement, jobs=2, pool=pool)
            report = run_cts(placement, jobs=2, pool=pool)
        assert report.scheduler["workers_replaced"] == 0
        # Second batch ran entirely on warm workers from the first.
        assert report.scheduler["pool_reuse"] >= 10

    def test_cts_tasks_windows_scale_with_net_radius(self, placement):
        pairs = cts_tasks(placement, lower=0.9, upper=1.1)
        for net, task in pairs:
            radius = manhattan_radius_from(net.source, list(net.sinks))
            assert task.bounds.lower[0] == pytest.approx(0.9 * radius)
            assert task.bounds.upper[0] == pytest.approx(1.1 * radius)

    def test_report_summary_mentions_throughput(self, placement):
        report = run_cts(placement)
        text = report.summary()
        assert "nets solved" in text and "nets/s" in text

    def test_parallel_summary_reports_pool_counters(self):
        # run_cts forks its own pool here; its counters still reach the
        # report and the summary line.
        report = run_cts(
            synth_placement(nets=40, sinks_per_net=5, seed=0), jobs=2
        )
        assert report.scheduler["tasks_run"] == report.nets
        assert report.scheduler["workers_replaced"] == 0
        assert "pool reuse" in report.summary()

    def test_shared_pool_summary_reports_pool_counters(self, placement):
        with WorkerPool(2) as pool:
            report = run_cts(placement, jobs=2, pool=pool)
        assert "pool reuse" in report.summary()

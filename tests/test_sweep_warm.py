"""Warm-started sweeps, canonical costs, and sharding.

The sweep-engine contract: warm-starting only re-seeds *valid* Steiner
rows, so converged optima are unchanged — warm and cold sweeps must
report bit-identical :func:`canonical_cost` values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_benchmark
from repro.ebf import (
    DelayBounds,
    WarmStart,
    canonical_cost,
    solve_sweep,
)
from repro.ebf.bounds import radius_of
from repro.geometry import Point, manhattan_radius_from
from repro.perf import solve_sweep_sharded, sweep_chunks
from repro.topology import nearest_neighbor_topology


def random_topo(m, seed):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 80, (m, 2))]
    return nearest_neighbor_topology(pts)


def sweep_instance(size=24):
    """A small fig8-style sweep: one topology, 6 bound windows."""
    bench = load_benchmark("prim1").scaled(size)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    grid = [(w, lo) for w in (0.2, 0.6) for lo in (1.0, 0.7, 0.4)]
    bounds_list = [
        DelayBounds.uniform(size, lo * radius, max(lo + w, 1.0) * radius)
        for w, lo in grid
    ]
    return topo, bounds_list


class TestCanonicalCost:
    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-1e6, 1e6, 50):
            c = canonical_cost(float(x))
            assert canonical_cost(c) == c

    def test_cancels_degenerate_vertex_noise(self):
        """Last-ulp wiggle (the degenerate-optimum symptom) quantizes away."""
        x = 1234.5678901
        y = x * (1.0 + 2.0**-50)
        assert y != x
        assert canonical_cost(x) == canonical_cost(y)

    def test_preserves_real_differences(self):
        x = 1234.5678901
        assert canonical_cost(x) != canonical_cost(x * (1.0 + 1e-5))

    def test_scale_free(self):
        """Quantization acts on the mantissa only — exact across octaves."""
        x = 3.14159265358979
        assert canonical_cost(x * 2.0**40) == canonical_cost(x) * 2.0**40

    def test_passthrough_specials(self):
        assert canonical_cost(0.0) == 0.0
        assert canonical_cost(float("inf")) == float("inf")
        assert math.isnan(canonical_cost(float("nan")))
        assert canonical_cost(-2.5) == -canonical_cost(2.5)


class TestWarmStart:
    def test_absorb_and_replay(self):
        topo = random_topo(6, 1)
        ws = WarmStart()
        ws.absorb(topo, [(1, 2, 0), (3, 1, 0)])
        assert ws.pairs_for(topo) == [(1, 2, 0), (3, 1, 0)]

    def test_orientation_dedup(self):
        topo = random_topo(6, 2)
        ws = WarmStart()
        ws.absorb(topo, [(1, 2, 0)])
        ws.absorb(topo, [(2, 1, 0), (2, 3, 0)])
        assert ws.pairs_for(topo) == [(1, 2, 0), (2, 3, 0)]

    def test_rekey_on_new_topology_resets(self):
        a, b = random_topo(6, 3), random_topo(6, 4)
        ws = WarmStart()
        ws.absorb(a, [(1, 2, 0)])
        assert ws.pairs_for(a) == [(1, 2, 0)]
        assert ws.pairs_for(b) == []  # rows are meaningless across topologies
        assert ws.pairs_for(b) == []  # and stay reset, not flip-flopping

    def test_structurally_identical_topologies_share_rows(self):
        """Rekeying is by structural hash, not object identity: a fresh
        object describing the same tree keeps the carried rows (the
        cross-request reuse the solve server depends on)."""
        a, b = random_topo(6, 5), random_topo(6, 5)
        assert a is not b
        ws = WarmStart()
        ws.absorb(a, [(1, 2, 0)])
        assert ws.pairs_for(b) == [(1, 2, 0)]

    def test_seeded_carries_key_and_dedups(self):
        from repro.topology import topology_hash

        topo = random_topo(6, 6)
        ws = WarmStart.seeded(topology_hash(topo), [(1, 2, 0), (2, 1, 0)])
        assert ws.pairs_for(topo) == [(1, 2, 0)]
        # A wrong key resets on first use, as with any foreign topology.
        ws2 = WarmStart.seeded("not-a-real-hash", [(1, 2, 0)])
        assert ws2.pairs_for(topo) == []


class TestWarmSweep:
    def test_warm_equals_cold_canonically(self):
        topo, bounds_list = sweep_instance()
        kw = dict(check_bounds=False, backend="scipy")  # the lazy loop
        cold = solve_sweep(topo, bounds_list, warm=False, **kw)
        warm = solve_sweep(topo, bounds_list, warm=True, **kw)
        assert [canonical_cost(s.cost) for s in warm] == [
            canonical_cost(s.cost) for s in cold
        ]
        # Cold solves never carry rows; warm solves do after the first.
        assert all(s.stats.warm_rows == 0 for s in cold)
        assert any(s.stats.warm_rows > 0 for s in warm[1:])
        # Re-seeding shrinks the lazy loop's total work.
        assert sum(s.stats.rounds for s in warm) <= sum(
            s.stats.rounds for s in cold
        )

    @given(st.integers(4, 10), st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_warm_equals_cold_on_random_instances(self, m, seed):
        topo = random_topo(m, seed)
        r = radius_of(topo)
        bounds_list = [
            DelayBounds.uniform(m, lo * r, max(1.0, lo + 0.3) * r)
            for lo in (1.0, 0.6, 0.2)
        ]
        kw = dict(check_bounds=False, backend="scipy")  # the lazy loop
        cold = solve_sweep(topo, bounds_list, warm=False, **kw)
        warm = solve_sweep(topo, bounds_list, warm=True, **kw)
        assert [canonical_cost(s.cost) for s in warm] == [
            canonical_cost(s.cost) for s in cold
        ]

    def test_explicit_warmstart_accumulates(self):
        topo, bounds_list = sweep_instance()
        ws = WarmStart()
        kw = dict(check_bounds=False, backend="scipy")  # the lazy loop
        solve_sweep(topo, bounds_list[:3], warm=ws, **kw)
        carried = len(ws.pairs)
        sols = solve_sweep(topo, bounds_list[3:], warm=ws, **kw)
        assert sols[0].stats.warm_rows >= carried > 0


class TestSharding:
    def test_sweep_chunks_cover_contiguously(self):
        spans = sweep_chunks(10, 3)
        assert spans[0][0] == 0 and spans[-1][1] == 10
        for (_, b), (a2, _) in zip(spans, spans[1:]):
            assert b == a2
        assert sum(b - a for a, b in spans) == 10

    def test_sweep_chunks_clamp_and_validate(self):
        assert sweep_chunks(2, 5) == [(0, 1), (1, 2)]
        assert sweep_chunks(0, 3) == []
        with pytest.raises(ValueError):
            sweep_chunks(4, 0)

    def test_sharded_matches_serial_canonically(self):
        topo, bounds_list = sweep_instance()
        serial = solve_sweep(topo, bounds_list, check_bounds=False)
        inline = solve_sweep_sharded(
            topo, bounds_list, jobs=1, check_bounds=False
        )
        chunked = solve_sweep_sharded(
            topo, bounds_list, jobs=3, check_bounds=False
        )
        want = [canonical_cost(s.cost) for s in serial]
        assert [canonical_cost(s.cost) for s in inline] == want
        assert [canonical_cost(s.cost) for s in chunked] == want

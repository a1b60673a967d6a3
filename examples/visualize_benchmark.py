"""Route a benchmark surrogate and export the tree as SVG + ASCII.

Builds the prim1 surrogate (scaled to 64 sinks for speed), solves a
tolerable-skew LUBT, and writes ``lubt_prim1.svg`` next to this script
(or to the path given as the first argument) — open it in any browser.
Dashed wires are *elongated* (their electrical length exceeds the drawn
span: the serpentine detours the paper trades against delay buffers).

Run:  python examples/visualize_benchmark.py [out.svg]
"""

import sys
from pathlib import Path

from repro import DelayBounds, nearest_neighbor_topology, solve_and_embed
from repro.analysis import render_tree, save_svg
from repro.data import load_benchmark
from repro.ebf.bounds import radius_of

OUT = Path(__file__).parent / "lubt_prim1.svg"


def main(out: Path = OUT) -> None:
    bench = load_benchmark("prim1").scaled(64)
    topo = nearest_neighbor_topology(list(bench.sinks), bench.source)
    r = radius_of(topo)
    bounds = DelayBounds.tolerable_skew(
        bench.num_sinks, upper=1.1 * r, skew=0.2 * r
    )

    sol, tree = solve_and_embed(topo, bounds)
    print(f"{bench.name}: {bench.num_sinks} sinks, radius {r:,.0f}")
    print(f"tree cost {sol.cost:,.1f}, skew {sol.skew / r:.3f} x radius, "
          f"elongation {tree.elongation:,.1f}")

    save_svg(out, tree, size=720, label_sinks=False)
    print(f"wrote {out}")

    print("\nterminal preview:")
    print(render_tree(tree, width=70, height=24))


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)

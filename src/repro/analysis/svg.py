"""SVG export of embedded routing trees (dependency-free).

Produces a standalone .svg: L-shaped wires, the source as a square, sinks
as circles, Steiner points as small diamonds, with elongated edges drawn
dashed (their drawn span is shorter than their electrical length: a
detour, :meth:`~repro.embedding.pipeline.EmbeddedTree.detours`).
"""

from __future__ import annotations

from pathlib import Path

from repro.embedding.pipeline import EmbeddedTree
from repro.geometry import Point

_STYLE = (
    "<style>"
    ".wire{stroke:#3b6ea5;stroke-width:__W__;fill:none}"
    ".elong{stroke:#c2542e;stroke-width:__W__;fill:none;"
    "stroke-dasharray:__D__}"
    ".sink{fill:#2e7d32}.steiner{fill:#8657a3}.source{fill:#b3261e}"
    "text{font-family:monospace;font-size:__F__px;fill:#333}"
    "</style>"
)


def tree_to_svg(
    tree: EmbeddedTree,
    size: int = 640,
    margin: int = 24,
    label_sinks: bool = True,
) -> str:
    """Render an embedded tree as an SVG document string."""
    if size < 64:
        raise ValueError("size too small")
    topo = tree.topology
    pts = tree.placements
    xs = [p.x for p in pts.values()]
    ys = [p.y for p in pts.values()]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    scale = (size - 2 * margin) / span

    def sx(p: Point) -> float:
        return margin + (p.x - xmin) * scale

    def sy(p: Point) -> float:
        return size - margin - (p.y - ymin) * scale  # y up

    stroke = max(1.0, size / 400.0)
    font = max(8, size // 60)
    marker = max(2.5, size / 180.0)

    from repro.embedding import serpentine_route

    body: list[str] = []
    max_amp = span / 40.0  # keep serpentines visually near their route
    detours = tree.detours()
    for node in range(1, topo.num_nodes):
        a = pts[topo.parent(node)]
        b = pts[node]
        if detours[node] > 0.0:
            # Draw the detour as actual serpentine geometry.
            route = serpentine_route(
                a, b, float(tree.edge_lengths[node]), max_amplitude=max_amp
            )
            path = f"M {sx(route[0]):.2f} {sy(route[0]):.2f} " + " ".join(
                f"L {sx(p):.2f} {sy(p):.2f}" for p in route[1:]
            )
            body.append(f'<path class="elong" d="{path}"/>')
        else:
            # L route: horizontal from a, vertical into b.
            body.append(
                f'<path class="wire" d="M {sx(a):.2f} {sy(a):.2f} '
                f'L {sx(b):.2f} {sy(a):.2f} L {sx(b):.2f} {sy(b):.2f}"/>'
            )
    for node in range(topo.num_nodes):
        p = pts[node]
        cx, cy = sx(p), sy(p)
        if node == 0:
            half = marker * 1.3
            body.append(
                f'<rect class="source" x="{cx - half:.2f}" '
                f'y="{cy - half:.2f}" width="{2 * half:.2f}" '
                f'height="{2 * half:.2f}"/>'
            )
        elif topo.is_sink(node):
            body.append(
                f'<circle class="sink" cx="{cx:.2f}" cy="{cy:.2f}" '
                f'r="{marker:.2f}"/>'
            )
            if label_sinks:
                body.append(
                    f'<text x="{cx + marker + 1:.2f}" '
                    f'y="{cy - marker:.2f}">s{node}</text>'
                )
        else:
            body.append(
                f'<circle class="steiner" cx="{cx:.2f}" cy="{cy:.2f}" '
                f'r="{marker * 0.7:.2f}"/>'
            )
    body.append(
        f'<text x="{margin}" y="{size - 6}">cost={tree.cost:.1f} '
        f"drawn={tree.drawn_wirelength:.1f} "
        f"elongation={tree.elongation:.1f}</text>"
    )

    style = (
        _STYLE.replace("__W__", f"{stroke:.2f}")
        .replace("__D__", f"{stroke * 3:.1f} {stroke * 2:.1f}")
        .replace("__F__", str(font))
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">'
        f"{style}<rect width='100%' height='100%' fill='white'/>"
        + "".join(body)
        + "</svg>"
    )


def save_svg(path: str | Path, tree: EmbeddedTree, **kwargs) -> None:
    """Write the tree rendering to ``path``."""
    Path(path).write_text(tree_to_svg(tree, **kwargs))

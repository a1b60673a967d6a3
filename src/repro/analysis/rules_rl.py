"""RL rule family: determinism/correctness invariants of the numeric core.

Ported from the project's original single-file lint with identical
semantics, plus the RL900 unused-suppression audit.  Rule semantics are
frozen — the shipped test suite pins them — so behavior changes need a
new code, not an edit here.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import FileContext, Rule, register

register(Rule(
    "RL000", "syntax-error",
    "File does not parse; nothing else can be checked.",
    severity="error",
))

register(Rule(
    "RL001", "float-equality",
    "No bare ==/!= against float literals in geometric code.",
    doc="""Geometric predicates must use epsilon compares (math.isclose
or an explicit tolerance); exact float equality there is almost always a
latent bug.""",
    scope=("/geometry/", "/embedding/", "/ebf/"),
))

register(Rule(
    "RL002", "set-iteration",
    "No iteration over a bare set in LP row-assembly paths.",
    doc="""Iteration order of a set depends on hash seeding and insertion
history; in row assembly it silently changes row order and with it the
degenerate-optimum vertex a backend returns.  Wrap in sorted(...).""",
    scope=("/lp/", "/ebf/"),
))

register(Rule(
    "RL003", "cache-mutation",
    "No mutation of memoized Topology caches outside topology/tree.py.",
    doc="""No attribute stores on _sinks_under/_sink_xy/_source_dist/_sink_uv/
_incidence/_lift, and no mutating method calls or subscript stores on
the tables returned by sinks_under()/sink_xy()/source_distances()/
sink_uv()/root_path_incidence().  Those tables are
shared and never invalidated — treat them as frozen.""",
    exempt=("/topology/tree.py",),
))

register(Rule(
    "RL004", "broad-except",
    "No `except Exception:` / bare `except:` outside resilience/.",
    doc="""Resilience owns the catch-everything boundary; elsewhere, name
the exception.  Suppress a deliberate boundary with `noqa: BLE001`.""",
    exempt=("/resilience/",),
))

register(Rule(
    "RL005", "set-rebuild-in-comprehension",
    "No set(...) constructed inside a comprehension's `if` clause.",
    doc="It is rebuilt once per element; hoist it.",
))

register(Rule(
    "RL006", "per-node-trr-in-loop",
    "No TRR(...) construction inside a loop in embedding/.",
    doc="""Per-node TRR objects in the postorder/preorder passes are
exactly what the array kernel (embedding/kernel.py) replaced; new
embedding code should work on the (u_lo, u_hi, v_lo, v_hi) bound arrays
and only materialise TRRs at the view boundary.""",
    scope=("/embedding/",),
))

register(Rule(
    "RL900", "unused-suppression",
    "A `# noqa` escape whose rule no longer fires is itself a finding.",
    doc="""Keeps the escape inventory honest: when the code a suppression
was covering is fixed or deleted, the stale comment would otherwise keep
masking future regressions on that line.  Audited codes are RLxxx, CCxxx
and BLE001 (the RL004 alias).  Remove the stale escape, or — for a
suppression that is intentionally conditional — silence the audit itself
with `# noqa: RL900`.""",
    severity="error",
))

#: Memoized Topology cache internals and their public accessors.
CACHE_ATTRS = {
    "_sinks_under", "_sink_xy", "_source_dist", "_sink_uv", "_incidence",
    "_lift",
}
CACHE_ACCESSORS = {
    "sinks_under", "sink_xy", "source_distances", "sink_uv",
    "root_path_incidence",
}
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "setdefault", "update",
}


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra on set expressions is still a set
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_trr_construction(node: ast.Call) -> bool:
    """``TRR(...)`` or a ``TRR.<classmethod>(...)`` such as ``from_point``
    / ``square`` — the per-node object builds the array kernel replaced."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "TRR"
    if isinstance(func, ast.Attribute):
        return isinstance(func.value, ast.Name) and func.value.id == "TRR"
    return False


def _mentions_cache_accessor(node: ast.AST) -> bool:
    """Does the expression chain contain a call to a memoized accessor?"""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in CACHE_ACCESSORS
        ):
            return True
    return False


class RlVisitor(ast.NodeVisitor):
    """Single-pass visitor carrying RL001–RL006."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self._loop_depth = 0

    # -- RL001: float equality ----------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _is_float_literal(left) or _is_float_literal(right)
            ):
                self.ctx.report(
                    "RL001",
                    node,
                    "float equality compare; use an epsilon "
                    "(math.isclose or explicit tolerance)",
                )
        self.generic_visit(node)

    # -- RL002: set iteration -----------------------------------------
    def _check_iter(self, iter_node: ast.AST, where: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self.ctx.report(
                "RL002",
                where,
                "iteration over a bare set (hash-order nondeterminism); "
                "wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, node)
            # RL005: set built in a comprehension condition
            for cond in gen.ifs:
                for sub in ast.walk(cond):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in ("set", "frozenset")
                    ):
                        self.ctx.report(
                            "RL005",
                            sub,
                            "set constructed inside a comprehension "
                            "condition (rebuilt per element); hoist it",
                        )
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- RL003: memoized-cache mutation -------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_cache_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_cache_store(node.target)
        self.generic_visit(node)

    def _check_cache_store(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and target.attr in CACHE_ATTRS:
            self.ctx.report(
                "RL003",
                target,
                f"store to memoized Topology cache {target.attr!r} "
                "outside topology/tree.py",
            )
        if isinstance(target, ast.Subscript) and _mentions_cache_accessor(
            target.value
        ):
            self.ctx.report(
                "RL003",
                target,
                "subscript store into a memoized Topology table "
                "(treat accessor results as read-only)",
            )

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and _mentions_cache_accessor(node.func.value)
        ):
            self.ctx.report(
                "RL003",
                node,
                f".{node.func.attr}() on a memoized Topology table "
                "(treat accessor results as read-only)",
            )
        # RL006: per-node TRR construction inside a loop
        if self._loop_depth > 0 and _is_trr_construction(node):
            self.ctx.report(
                "RL006",
                node,
                "per-node TRR construction inside a loop; use the array "
                "kernel's (u_lo, u_hi, v_lo, v_hi) bound vectors "
                "(embedding/kernel.py) and materialise TRRs only at the "
                "view boundary",
            )
        self.generic_visit(node)

    # -- RL004: broad except ------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        if broad:
            what = "bare except" if node.type is None else (
                f"except {node.type.id}"  # type: ignore[union-attr]
            )
            self.ctx.report(
                "RL004",
                node,
                f"{what} outside resilience/; name the exception or "
                "mark the boundary with `noqa: BLE001`",
                aliases=("BLE001",),
            )
        self.generic_visit(node)

"""Ledger labels for plan nodes.

Every executor logs one ``(label, work)`` entry per plan-node
occurrence; :func:`node_label` is the label the reference interpreter
uses, so the compiled path and tracing spans produce ledgers that compare equal to the reference's.
"""

from __future__ import annotations

from ...optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
)

__all__ = ["node_label"]


def node_label(node: Plan) -> str:
    """The reference interpreter's log label for ``node``."""
    if isinstance(node, Scan):
        return str(node)
    if isinstance(node, Project):
        return f"pi{node.columns}"
    if isinstance(node, Select):
        return f"sigma[{node.predicate_name}]"
    if isinstance(node, MapNode):
        return f"map[{node.fn_name}]"
    if isinstance(node, Union):
        return "union"
    if isinstance(node, Difference):
        return "difference"
    if isinstance(node, Intersect):
        return "intersect"
    if isinstance(node, Product):
        return "product"
    if isinstance(node, Join):
        return f"join{node.on}"
    raise TypeError(f"unknown plan node: {node!r}")

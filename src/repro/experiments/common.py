"""Shared experiment scaffolding: the text-table renderer.

The emulated testbed itself (§4.1) is :func:`repro.deploy.build`;
``subscriber_keys`` is re-exported here because the frozen whole-stack
benchmark imports it from this module.
"""

from __future__ import annotations

from typing import List

from ..deploy import subscriber_keys

__all__ = ["format_table", "subscriber_keys"]


def format_table(headers: List[str], rows: List[List[object]]) -> str:
    """Fixed-width text table for bench/experiment output."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:,.2f}"
        return str(value)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [max(len(headers[i]),
                  max((len(r[i]) for r in text_rows), default=0))
              for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(headers))))
    return "\n".join(lines)

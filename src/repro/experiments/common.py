"""Shared experiment scaffolding: the text-table renderer and the
baseline EPC's subscribers.

The emulated testbed itself (§4.1) is :func:`repro.deploy.build`;
``subscriber_keys`` is re-exported here because the frozen whole-stack
benchmark imports it from this module.
"""

from __future__ import annotations

from typing import List

from ..core.agw import SubscriberProfile
from ..deploy import subscriber_keys
from ..lte import Ue, make_imsi

__all__ = ["epc_ues", "format_table", "subscriber_keys"]


def epc_ues(sim, epc, enb, num_ues: int) -> List[Ue]:
    """``num_ues`` UEs camped on ``enb``, provisioned straight into the
    baseline EPC and numbered as :func:`repro.deploy.build` numbers its
    subscribers."""
    ues = []
    for i in range(1, num_ues + 1):
        imsi = make_imsi(i)
        k, opc = subscriber_keys(i)
        epc.provision(SubscriberProfile(imsi=imsi, k=k, opc=opc))
        ues.append(Ue(sim, imsi, k, opc, enb))
    return ues


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

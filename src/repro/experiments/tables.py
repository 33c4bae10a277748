"""Tables 2 and 3: the paper's cost results, regenerated.

Thin wrappers over :mod:`repro.costmodel` that print the same rows the
paper reports and expose the headline numbers the benches assert on.
"""

from __future__ import annotations

from typing import List

from ..costmodel import (
    ComparisonTable,
    CostTable,
    DeploymentCostParams,
    SiteParams,
    agw_cost_share,
    per_site_cost_comparison,
    ran_site_capex,
)
from ..record import record
from .common import format_table


@record
class Table2Result:
    table: CostTable
    agw_share: float

    def rows(self) -> List[List[object]]:
        rows = [[r["item"], r["unit_cost"], r["quantity"], r["total"],
                 r["notes"]] for r in self.table.rows()]
        rows.append(["RAN CapEx (per site)", "", "", self.table.total, ""])
        return rows

    def render(self) -> str:
        header = (f"Table 2 - RAN equipment cost for a typical site "
                  f"(AGW share: {self.agw_share * 100:.1f}%)\n")
        return header + format_table(
            ["Item", "Unit Cost", "Qty", "Total", "Notes"], self.rows())


def run_table2(params: SiteParams = None) -> Table2Result:
    return Table2Result(table=ran_site_capex(params),
                        agw_share=agw_cost_share(params))


@record
class Table3Result:
    table: ComparisonTable

    @property
    def savings_pct(self) -> float:
        return self.table.savings_pct

    def rows(self) -> List[List[object]]:
        rows = []
        for row in self.table.rows():
            diff = ("-" if row.difference == 0 else
                    f"{row.difference:+,.0f} ({row.difference_pct:+.0f}%)")
            rows.append([row.item, row.traditional, row.magma, diff,
                         row.notes])
        rows.append(["Cost/Site", self.table.traditional_total,
                     self.table.magma_total,
                     f"-{self.savings_pct:.0f}%", ""])
        return rows

    def render(self) -> str:
        header = (f"Table 3 - per-site installed cost, traditional vs "
                  f"Magma ({self.savings_pct:.0f}% lower)\n")
        return header + format_table(
            ["Item", "Traditional", "Magma", "Difference", "Notes"],
            self.rows())


def run_table3(params: DeploymentCostParams = None) -> Table3Result:
    return Table3Result(table=per_site_cost_comparison(params))

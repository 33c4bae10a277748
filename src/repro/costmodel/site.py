"""Site cost models: the paper's Table 2 and Table 3.

Defaults are the paper's reported line items; every parameter can be
overridden for sensitivity sweeps (the ablation benches vary eNodeB count
and engineering costs).
"""

from __future__ import annotations

from ..record import record
from .items import ComparisonRow, ComparisonTable, CostItem, CostTable


@record
class SiteParams:
    """Table 2 inputs (a typical Magma cell site)."""

    enodeb_unit_cost: float = 4_000.0
    enodeb_count: int = 3
    agw_unit_cost: float = 450.0
    accessories_unit_cost: float = 450.0

    def __post_init__(self):
        if self.enodeb_count < 1:
            raise ValueError("a site needs at least one eNodeB")


def ran_site_capex(params: SiteParams = None) -> CostTable:
    """Table 2: cost breakdown of active RAN equipment for a typical site."""
    params = params or SiteParams()
    table = CostTable("Table 2: RAN CapEx (per site)")
    table.add(CostItem(
        name="LTE eNodeB", unit_cost=params.enodeb_unit_cost,
        quantity=params.enodeb_count,
        notes="Baicells Nova 233: 1W, 3.5GHz, 96 user, 2x2 MIMO."))
    table.add(CostItem(
        name="AGW", unit_cost=params.agw_unit_cost, quantity=1,
        notes="Same as used in experiments."))
    table.add(CostItem(
        name="Accessories", unit_cost=params.accessories_unit_cost,
        quantity=params.enodeb_count,
        notes="18dBi sector antenna, RF cables, connectors, grounding."))
    return table


def agw_cost_share(params: SiteParams = None) -> float:
    """The paper's claim: AGW < 3% of active equipment cost."""
    table = ran_site_capex(params)
    return table.share_of_total("AGW")


@record
class DeploymentCostParams:
    """Table 3 inputs (AccessParks per-site installed costs)."""

    ran: float = 7_950.0
    core_hw_traditional: float = 1_200.0
    core_hw_magma: float = 300.0
    core_sw_traditional: float = 2_000.0
    core_sw_magma: float = 600.0
    field_engineering: float = 200.0
    lte_engineering_traditional: float = 5_000.0
    lte_engineering_magma: float = 330.0


def per_site_cost_comparison(params: DeploymentCostParams = None) -> ComparisonTable:
    """Table 3: per-site installed costs, traditional vs Magma."""
    params = params or DeploymentCostParams()
    table = ComparisonTable(
        "Table 3: per-site installed costs (AccessParks)")
    table.add(ComparisonRow(
        item="RAN", traditional=params.ran, magma=params.ran,
        notes="Identical RAN and backup power."))
    table.add(ComparisonRow(
        item="Core HW", traditional=params.core_hw_traditional,
        magma=params.core_hw_magma))
    table.add(ComparisonRow(
        item="Core SW", traditional=params.core_sw_traditional,
        magma=params.core_sw_magma, notes="Licenses/support."))
    table.add(ComparisonRow(
        item="Field Eng.", traditional=params.field_engineering,
        magma=params.field_engineering, notes="Installation."))
    table.add(ComparisonRow(
        item="LTE Eng.", traditional=params.lte_engineering_traditional,
        magma=params.lte_engineering_magma,
        notes="Planning, core config."))
    return table

"""Cost models behind Tables 2-3 and the scale-down story."""

from .items import ComparisonRow, ComparisonTable, CostItem, CostTable
from .site import (
    DeploymentCostParams,
    SiteParams,
    agw_cost_share,
    per_site_cost_comparison,
    ran_site_capex,
)

__all__ = [
    "ComparisonRow",
    "ComparisonTable",
    "CostItem",
    "CostTable",
    "DeploymentCostParams",
    "SiteParams",
    "agw_cost_share",
    "per_site_cost_comparison",
    "ran_site_capex",
]

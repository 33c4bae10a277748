"""Tables 2 & 3 benches: the paper's cost results.

Table 2: RAN CapEx for a typical site; the AGW is ~3% of active equipment.
Table 3: AccessParks per-site installed cost falls 43% with Magma, driven
by the 93% reduction in LTE engineering (operational complexity).
"""

import pytest

from repro.experiments.tables import run_table2, run_table3

from conftest import run_once


@pytest.mark.benchmark(group="table2")
def test_table2_ran_capex(benchmark):
    result = run_once(benchmark, run_table2)
    print()
    print(result.render())

    table = result.table
    assert table.item("LTE eNodeB").total == 12_000.0
    assert table.item("AGW").total == 450.0
    assert table.item("Accessories").total == 1_350.0
    # The paper's headline: AGW cost is marginal (~3%) at a cell site.
    assert result.agw_share < 0.035


@pytest.mark.benchmark(group="table3")
def test_table3_cost_comparison(benchmark):
    result = run_once(benchmark, run_table3)
    print()
    print(result.render())

    table = result.table
    assert table.traditional_total == 16_350.0
    assert table.magma_total == 9_380.0
    # "-43%" per-site cost.
    assert result.savings_pct == pytest.approx(42.6, abs=1.0)
    # Savings dominated by LTE engineering (-93%).
    lte = table.row("LTE Eng.")
    assert lte.difference_pct == pytest.approx(-93.4, abs=0.5)
    savings = table.traditional_total - table.magma_total
    assert -lte.difference / savings > 0.6

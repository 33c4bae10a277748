"""Cost model primitives: line items and tables."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..record import record


@record(frozen=True)
class CostItem:
    """One line of a cost table."""

    name: str
    unit_cost: float
    quantity: float = 1.0
    notes: str = ""

    def __post_init__(self):
        if self.unit_cost < 0 or self.quantity < 0:
            raise ValueError("costs and quantities must be >= 0")

    @property
    def total(self) -> float:
        return self.unit_cost * self.quantity


class CostTable:
    """An ordered collection of cost items with a total."""

    def __init__(self, title: str, items: Optional[List[CostItem]] = None):
        self.title = title
        self._items: List[CostItem] = list(items or [])

    def add(self, item: CostItem) -> "CostTable":
        self._items.append(item)
        return self

    def items(self) -> List[CostItem]:
        return list(self._items)

    def item(self, name: str) -> CostItem:
        for entry in self._items:
            if entry.name == name:
                return entry
        raise KeyError(f"no cost item {name!r} in {self.title!r}")

    @property
    def total(self) -> float:
        return sum(item.total for item in self._items)

    def share_of_total(self, name: str) -> float:
        if self.total == 0:
            raise ValueError("empty cost table")
        return self.item(name).total / self.total

    def rows(self) -> List[Dict[str, object]]:
        """Printable rows (name, unit cost, qty, total, notes)."""
        return [{
            "item": item.name,
            "unit_cost": item.unit_cost,
            "quantity": item.quantity,
            "total": item.total,
            "notes": item.notes,
        } for item in self._items]


@record(frozen=True)
class ComparisonRow:
    """One line of a side-by-side comparison (Table 3)."""

    item: str
    traditional: float
    magma: float
    notes: str = ""

    @property
    def difference(self) -> float:
        return self.magma - self.traditional

    @property
    def difference_pct(self) -> float:
        if self.traditional == 0:
            return 0.0
        return self.difference / self.traditional * 100.0


class ComparisonTable:
    def __init__(self, title: str, rows: Optional[List[ComparisonRow]] = None):
        self.title = title
        self._rows: List[ComparisonRow] = list(rows or [])

    def add(self, row: ComparisonRow) -> "ComparisonTable":
        self._rows.append(row)
        return self

    def rows(self) -> List[ComparisonRow]:
        return list(self._rows)

    def row(self, item: str) -> ComparisonRow:
        for row in self._rows:
            if row.item == item:
                return row
        raise KeyError(f"no row {item!r} in {self.title!r}")

    @property
    def traditional_total(self) -> float:
        return sum(row.traditional for row in self._rows)

    @property
    def magma_total(self) -> float:
        return sum(row.magma for row in self._rows)

    @property
    def savings_pct(self) -> float:
        if self.traditional_total == 0:
            raise ValueError("empty comparison")
        return (self.traditional_total - self.magma_total) / \
            self.traditional_total * 100.0

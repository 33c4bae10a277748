"""Unit tests for the cell capacity model and max-min fair sharing."""

import pytest

from repro.lte import CellCapacityError, CellConfig, CellModel
from repro.sim.fairshare import max_min_share


def test_max_min_all_fit():
    alloc = max_min_share({"a": 10, "b": 20}, capacity=100, per_user_cap=50)
    assert alloc == {"a": 10, "b": 20}


def test_max_min_equal_split_under_contention():
    alloc = max_min_share({"a": 100, "b": 100}, capacity=100, per_user_cap=100)
    assert alloc["a"] == pytest.approx(50)
    assert alloc["b"] == pytest.approx(50)


def test_max_min_light_user_protected():
    alloc = max_min_share({"light": 5, "heavy1": 100, "heavy2": 100},
                          capacity=65, per_user_cap=100)
    assert alloc["light"] == pytest.approx(5)
    assert alloc["heavy1"] == pytest.approx(30)
    assert alloc["heavy2"] == pytest.approx(30)


def test_max_min_per_user_cap_applies():
    alloc = max_min_share({"a": 100}, capacity=100, per_user_cap=40)
    assert alloc["a"] == pytest.approx(40)


def test_max_min_zero_rate_users_get_zero():
    alloc = max_min_share({"idle": 0, "busy": 10}, capacity=100, per_user_cap=50)
    assert alloc["idle"] == 0.0
    assert alloc["busy"] == 10


def test_max_min_empty():
    assert max_min_share({}, capacity=100, per_user_cap=50) == {}


def test_max_min_validation():
    with pytest.raises(ValueError):
        max_min_share({"a": 1}, capacity=-1, per_user_cap=1)
    with pytest.raises(ValueError):
        max_min_share({"a": 1}, capacity=1, per_user_cap=0)


def test_cell_admission_limit():
    cell = CellModel(CellConfig(max_active_ues=2))
    cell.admit("u1")
    cell.admit("u2")
    with pytest.raises(CellCapacityError):
        cell.admit("u3")
    assert sorted(cell.allocate()) == ["u1", "u2"]


def test_cell_admit_idempotent():
    cell = CellModel(CellConfig(max_active_ues=1))
    cell.admit("u1")
    cell.admit("u1")
    assert list(cell.allocate()) == ["u1"]


def test_cell_release_frees_slot():
    cell = CellModel(CellConfig(max_active_ues=1))
    cell.admit("u1")
    cell.release("u1")
    cell.admit("u2")
    assert cell.is_active("u2")
    assert not cell.is_active("u1")


def test_cell_rates_and_allocation():
    cell = CellModel(CellConfig(capacity_mbps=100, per_ue_peak_mbps=80))
    cell.admit("u1")
    cell.admit("u2")
    cell.set_offered_rate("u1", 30)
    cell.set_offered_rate("u2", 200)
    alloc = cell.allocate()
    assert alloc["u1"] == pytest.approx(30)
    assert alloc["u2"] == pytest.approx(70)
    assert sum(alloc.values()) == pytest.approx(100)


def test_cell_set_rate_unknown_ue_raises():
    cell = CellModel()
    with pytest.raises(KeyError):
        cell.set_offered_rate("ghost", 1.0)


def test_cell_negative_rate_rejected():
    cell = CellModel()
    cell.admit("u1")
    with pytest.raises(ValueError):
        cell.set_offered_rate("u1", -1)


def test_typical_site_arithmetic():
    """The paper's typical cell: 96 UEs x 1.5 Mbps fits a ~150 Mbps cell."""
    cell = CellModel(CellConfig(max_active_ues=96, capacity_mbps=150))
    for i in range(96):
        cell.admit(f"u{i}")
        cell.set_offered_rate(f"u{i}", 1.5)
    alloc = cell.allocate()
    assert all(rate == pytest.approx(1.5) for rate in alloc.values())
    assert sum(alloc.values()) == pytest.approx(144.0)


def test_cell_config_validation():
    with pytest.raises(ValueError):
        CellConfig(max_active_ues=0)
    with pytest.raises(ValueError):
        CellConfig(capacity_mbps=0)

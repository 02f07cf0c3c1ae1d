"""Demand admission: branch selection, scaling exactness, idempotence."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from bandalloc.admission import admit


class FloatSubclass(float):
    pass


def test_exact_fit_confirmed_unchanged():
    confirmed = admit((1.0, 2.0, 2.0), 5.0)
    assert confirmed.values == (1.0, 2.0, 2.0)
    assert confirmed.total == 5.0


def test_total_computed_once_outside_equality_and_repr():
    confirmed, fresh = admit((0.1, 0.2, 0.3), 5.0), admit((0.1, 0.2, 0.3), 5.0)
    total = confirmed.total
    assert total == math.fsum((0.1, 0.2, 0.3))
    assert confirmed.total is total  # fsum would return a new float
    assert confirmed == fresh and hash(confirmed) == hash(fresh)
    assert repr(confirmed) == repr(fresh) == "ConfirmedDemands(values=(0.1, 0.2, 0.3))"


def test_under_capacity_confirmed_unchanged():
    confirmed = admit((1.0, 1.0), 5.0)
    assert confirmed.values == (1.0, 1.0)


def test_over_capacity_scaled_proportionally():
    confirmed = admit((2.0, 4.0, 4.0), 5.0)
    assert confirmed.values == pytest.approx((1.0, 2.0, 2.0), rel=1e-15)
    assert confirmed.total == pytest.approx(5.0, rel=1e-15)


def test_zero_demands_pass_through():
    confirmed = admit((0.0, 0.0), 3.0)
    assert confirmed.values == (0.0, 0.0)
    assert confirmed.total == 0.0


def test_empty_demands_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        admit((), 5.0)


def test_negative_demand_rejected():
    with pytest.raises(ValueError, match=r"demand\[1\]"):
        admit((1.0, -0.5), 5.0)


@pytest.mark.parametrize("bandwidth", [0.0, -2.0, math.nan])
def test_bad_bandwidth_rejected(bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        admit((1.0,), bandwidth)


demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
)
# zero or a realistic magnitude; subnormal demands make ratio checks vacuous
ratio_demand_lists = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=100.0)),
    min_size=1,
    max_size=30,
)
budgets = st.floats(min_value=0.1, max_value=50.0)


@given(demands=demand_lists, bandwidth=budgets)
def test_total_never_exceeds_budget(demands, bandwidth):
    confirmed = admit(demands, bandwidth)
    assert confirmed.total <= bandwidth
    assert len(confirmed.values) == len(demands)
    assert all(v >= 0.0 for v in confirmed.values)


@given(demands=ratio_demand_lists, bandwidth=budgets)
def test_scaling_preserves_ratios_and_hits_budget(demands, bandwidth):
    total = math.fsum(demands)
    confirmed = admit(demands, bandwidth)
    if total <= bandwidth:
        assert confirmed.values == tuple(demands)
        return
    assert abs(confirmed.total - bandwidth) <= 1e-12 * bandwidth
    j = next(i for i, d in enumerate(demands) if d > 0.0)
    for i, d in enumerate(demands):
        if d > 0.0:
            want = d / demands[j]
            got = confirmed.values[i] / confirmed.values[j]
            assert abs(got - want) <= 1e-12 * abs(want)
        else:
            assert confirmed.values[i] == 0.0


@given(demands=demand_lists, bandwidth=budgets)
def test_idempotent(demands, bandwidth):
    once = admit(demands, bandwidth)
    twice = admit(once.values, bandwidth)
    assert twice.values == once.values


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=3.0),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(min_value=-3, max_value=3),
            st.booleans(),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.7e308]),
            st.floats(min_value=-3.0, max_value=3.0).map(FloatSubclass),
        ),
        min_size=1,
        max_size=6,
    ),
    st.floats(min_value=0.5, max_value=10.0),
)
def test_column_check_matches_per_entry_reference(demands, bandwidth):
    # the per-entry check the whole-column one stands in for
    want = None
    for k, d in enumerate(demands):
        if not (d >= 0.0 and math.isfinite(d)):
            want = f"demand[{k}] must be a finite number >= 0, got {d}"
            break
    if want is not None:
        with pytest.raises(ValueError) as excinfo:
            admit(demands, bandwidth)
        assert str(excinfo.value) == want
        return
    try:
        total = math.fsum(demands)
    except OverflowError:
        with pytest.raises(OverflowError):
            admit(demands, bandwidth)
        return
    confirmed = admit(demands, bandwidth)
    if total <= bandwidth:
        assert confirmed.values == tuple(demands)
    else:
        assert confirmed.total <= bandwidth

"""Property tests of the cost model on random parameters and fleet sizes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from wetplan.costs import SCENARIOS, CostParams, scenario_cost

# Derandomized so the suite gives the same verdict on every run.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Money in thousandths of a dollar, so components land on fractional cents.
_money = st.fractions(min_value=0, max_value=10_000, max_denominator=1000)
_years = st.integers(1, 40)

params = st.builds(
    CostParams,
    devices_per_pb=st.integers(1, 200),
    install_grid_pb=_money,
    install_green_pb=_money,
    install_battery_pb=_money,
    device_install=_money,
    device_maintenance_fraction=st.fractions(min_value=0, max_value=2, max_denominator=100),
    battery_pb_annual_fraction=st.fractions(min_value=0, max_value=1, max_denominator=100),
    green_pb_replacement_fraction=st.fractions(min_value=0, max_value=1, max_denominator=100),
    green_pb_replacement_period=_years,
    pb_avg_power_w=st.fractions(min_value=0, max_value=100, max_denominator=10),
    grid_price_per_kwh=st.fractions(min_value=0, max_value=1, max_denominator=1000),
    include_final_replacement=st.booleans(),
    annualize_green_replacement=st.booleans(),
)


@PROPERTY
@given(params, st.sampled_from(SCENARIOS), st.integers(1, 10_000), _years, _years)
def test_components_sum_exactly_to_the_total(p, scenario, n_devices, horizon, battery_life):
    b = scenario_cost(scenario, n_devices, p, horizon, battery_life)
    parts = (b.device_install_cents, b.device_maintenance_cents, b.pb_install_cents, b.pb_opex_cents)
    assert all(isinstance(c, int) for c in parts)
    assert sum(parts) == b.grand_total_cents
    assert b.horizon_years == horizon and b.battery_life_years == battery_life

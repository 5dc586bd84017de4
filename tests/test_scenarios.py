"""Scenario catalogue and the YAML file format."""

import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklink.channel import DoseEvent, DoseSchedule, PkParams, Route
from pklink.errors import UsageError
from pklink.modem import ModulationConfig, modulate_ook, frame
from pklink.testbed import PlatformConfig
from pklink.scenarios import (
    SCENARIO_DIR_ENV,
    NoiseConfig,
    Scenario,
    builtin_scenarios,
    resolve_scenario,
)

from conftest import BENCH_K_A, BENCH_K_E

EXPECTED_NAMES = {"human-oral", "rat-oral", "bench-iv", "bench-ev", "link-iv", "link-ev"}


def test_builtin_catalogue():
    catalogue = builtin_scenarios()
    assert set(catalogue) == EXPECTED_NAMES
    for name, scenario in catalogue.items():
        assert scenario.name == name
        assert scenario.description
        assert scenario.platform is not None


def test_every_builtin_round_trips_through_yaml(tmp_path):
    for name, scenario in builtin_scenarios().items():
        path = tmp_path / f"{name}.yaml"
        scenario.save(path)
        loaded = Scenario.load(path)
        assert loaded == scenario


def test_resolve_by_name_path_and_search_dir(tmp_path, monkeypatch):
    assert resolve_scenario("bench-iv").name == "bench-iv"

    custom = resolve_scenario("bench-iv").with_overrides(seed=99)
    by_path = tmp_path / "mine.yaml"
    custom.save(by_path)
    assert resolve_scenario(str(by_path)).seed == 99

    extra = tmp_path / "lib"
    extra.mkdir()
    custom.save(extra / "shared.yaml")
    monkeypatch.setenv(SCENARIO_DIR_ENV, f"{tmp_path}{os.pathsep}{extra}")
    assert resolve_scenario("shared").seed == 99
    assert resolve_scenario("mine.yaml").seed == 99

    with pytest.raises(UsageError, match="bench-iv"):
        resolve_scenario("no-such-scenario")


def test_mapping_errors_carry_field_paths():
    with pytest.raises(UsageError, match="scenario field pk"):
        Scenario.from_mapping({"name": "x", "route": "intravenous", "grid": {"dt": 1, "horizon": 10}})
    with pytest.raises(UsageError, match="scenario field route"):
        Scenario.from_mapping({"name": "x", "route": "topical"})
    base = {
        "name": "x",
        "route": "intravenous",
        "pk": {"k_e": 1e-3, "V": 100.0},
        "grid": {"dt": 1.0, "horizon": 100.0},
        "doses": [{"time": 0.0, "mass": 1.0}],
    }
    assert Scenario.from_mapping(base).pk.k_e == 1e-3
    bad_grid = dict(base, grid={"dt": 1.0})
    with pytest.raises(UsageError, match="grid.horizon"):
        Scenario.from_mapping(bad_grid)
    bad_dose = dict(base, doses=[{"time": 0.0}])
    with pytest.raises(UsageError, match=r"doses\[0\]"):
        Scenario.from_mapping(bad_dose)
    bad_seed = dict(base, seed="tomorrow")
    with pytest.raises(UsageError, match="seed"):
        Scenario.from_mapping(bad_seed)
    modulated = {k: v for k, v in base.items() if k != "doses"}
    modulated["modulation"] = {"symbol_period": 600.0, "dose_mass": 1.0}
    with pytest.raises(UsageError, match="payload"):
        Scenario.from_mapping(modulated)
    with pytest.raises(UsageError):
        Scenario.from_text("just: [unclosed")
    for text in ("name: \x01\n", "name: '\ud800'\n"):  # a control character, a lone surrogate
        with pytest.raises(UsageError, match="scenario parse error"):
            Scenario.from_text(text)


def test_payload_accepts_string_or_list():
    base = {
        "name": "x",
        "route": "intravenous",
        "pk": {"k_e": 1e-3, "V": 100.0},
        "grid": {"dt": 1.0, "horizon": 100.0},
        "modulation": {"symbol_period": 10.0, "dose_mass": 1.0},
    }
    s1 = Scenario.from_mapping(dict(base, payload="0110"))
    s2 = Scenario.from_mapping(dict(base, payload=[0, 1, 1, 0]))
    assert s1.payload == s2.payload == (0, 1, 1, 0)
    with pytest.raises(UsageError, match="payload"):
        Scenario.from_mapping(dict(base, payload="012"))
    # an empty payload is refused in each form, and by the constructor
    for empty in ("", []):
        with pytest.raises(UsageError, match="^scenario field payload: "):
            Scenario.from_mapping(dict(base, payload=empty))
    with pytest.raises(UsageError, match="^scenario field payload: must hold at least one bit$"):
        replace(resolve_scenario("link-ev"), payload=())


@pytest.mark.parametrize("key", ["platform", "modulation"])
def test_a_scenario_refuses_a_part_on_another_route(key):
    # link would send on the part's route and detect with the scenario's
    # kernel, and the scenario's file holds one route
    scenario = resolve_scenario("link-iv")
    part = replace(getattr(scenario, key), route=Route.EXTRAVASCULAR)
    with pytest.raises(UsageError, match=f"^scenario field {key}.route: must be the scenario's route, intravenous$"):
        replace(scenario, **{key: part})
    # the scenario's own route, changed alone, leaves both parts behind
    with pytest.raises(UsageError, match="^scenario field platform.route: "):
        replace(scenario, route=Route.EXTRAVASCULAR)


def test_overrides_and_grid_size():
    scenario = resolve_scenario("bench-iv")
    changed = scenario.with_overrides(dt=2.0, horizon=4000.0, seed=12)
    assert (changed.dt, changed.horizon, changed.seed) == (2.0, 4000.0, 12)
    assert changed.pk == scenario.pk
    assert changed.grid_size() == 2001
    assert scenario.with_overrides() == scenario
    # the overrides are validated together: dt 1e-5 over the scenario's own
    # 8000 s horizon would exceed MAX_GRID_SAMPLES
    assert scenario.with_overrides(dt=1e-5, horizon=10.0).grid_size() == 1_000_001


def test_link_scenario_schedule_matches_modulator():
    scenario = resolve_scenario("link-ev")
    expected = modulate_ook(frame(scenario.payload), scenario.modulation)
    assert scenario.schedule() == expected
    assert scenario.payload == (0, 1, 0, 1, 0, 0, 1, 1)


def test_bench_scenarios_carry_the_inconsistent_nominal_pair():
    scenario = resolve_scenario("bench-iv")
    assert scenario.nominal_volumes == (650.0, 300.0)
    # the platform in use is the self-consistent plan, not the nominal pair
    assert scenario.platform.V_a == pytest.approx(299.6941896024465, rel=1e-12)
    assert scenario.platform.V_b == pytest.approx(649.0066225165563, rel=1e-12)
    assert scenario.platform.absorption_rate == pytest.approx(BENCH_K_A, rel=1e-12)
    assert scenario.platform.elimination_rate == pytest.approx(BENCH_K_E, rel=1e-12)
    assert scenario.pk.V == scenario.platform.V_b


def test_oral_scenarios_use_published_rates():
    human = resolve_scenario("human-oral")
    assert (human.pk.k_a, human.pk.k_e) == (2.89e-4, 4.47e-5)
    assert human.schedule().total_mass == 1000.0
    rat = resolve_scenario("rat-oral")
    assert (rat.pk.k_a, rat.pk.k_e) == (1.69e-4, 5.08e-4)
    assert rat.pk.k_a < rat.pk.k_e  # deliberate flip-flop regime


def test_noise_config():
    assert NoiseConfig().silent
    assert not NoiseConfig(sigma=0.1).silent
    assert not NoiseConfig(spike_prob=0.5, spike_scale=1.0).silent
    with pytest.raises(UsageError):
        NoiseConfig(sigma=-1.0)
    with pytest.raises(UsageError):
        Scenario(
            name="x",
            description="",
            route=Route.INTRAVENOUS,
            pk=resolve_scenario("bench-iv").pk,
            dt=1.0,
            horizon=100.0,
        )


def test_exponent_floats_read_as_yaml_1_2_numbers():
    text = resolve_scenario("link-ev").to_text()
    edited = text.replace("k_e: 0.00151", "k_e: 151e-5").replace("sigma: 0.0", "sigma: 1e-2")
    edited = edited.replace("spike_scale: 0.0", "spike_scale: .5E+1")
    scenario = Scenario.from_text(edited)
    assert scenario.pk.k_e == 1.51e-3
    assert scenario.noise.sigma == 0.01
    assert scenario.noise.spike_scale == 5.0
    assert scenario.seed == 6  # plain integers still load as integers
    with pytest.raises(UsageError, match="must be finite"):
        Scenario.from_text(text.replace("sigma: 0.0", "sigma: 1e400"))
    # a quoted scalar is a string, whatever it spells
    with pytest.raises(UsageError) as caught:
        Scenario.from_text(text.replace("k_e: 0.00151", "k_e: '1e-3'"))
    assert str(caught.value) == "scenario field pk.k_e: must be a number, got '1e-3'"


def test_field_errors_name_their_field_once():
    text = resolve_scenario("link-ev").to_text()
    cases = (
        ("k_e: 0.00151", "k_e: x", "scenario field pk.k_e: "),
        ("Q_a: 0.98", "Q_a: x", "scenario field platform.Q_a: "),
        ("pump_rate: 1.3", "pump_rate: x", "scenario field modulation.pump_rate: "),
        ("sigma: 0.0", "sigma: x", "scenario field noise.sigma: "),
    )
    for old, new, prefix in cases:
        with pytest.raises(UsageError) as caught:
            Scenario.from_text(text.replace(old, new))
        message = str(caught.value)
        assert message.startswith(prefix)
        assert message.count("scenario field") == 1
    with pytest.raises(UsageError) as caught:
        Scenario.from_mapping({
            "name": "x", "route": "intravenous", "pk": {"k_e": 1e-3, "V": 100.0},
            "grid": {"dt": 1.0, "horizon": 100.0}, "doses": [{"time": 0.0, "mass": "x"}],
        })
    assert str(caught.value) == "scenario field doses[0].mass: must be a number, got 'x'"
    # errors of the parameter classes themselves still get the section's name
    with pytest.raises(UsageError, match="^scenario field pk: "):
        Scenario.from_text(text.replace("k_e: 0.00151", "k_e: -1.0"))
    # a key that names no field is refused with its path, in every section
    bench = resolve_scenario("bench-ev").to_text()
    cases = (
        ("  k_a: 0.00327\n", "  ka: 0.00327\n", "pk.ka"),
        ("  sigma: 0.0\n", "  sigmaa: 0.0\n", "noise.sigmaa"),
        ("seed: 4\n", "seed: 4\nmodulaton: 1\n", "modulaton"),
        ("  horizon: 8000.0\n", "  horizon: 8000.0\n  seed: 1\n", "grid.seed"),
        ("  Q_a: 0.98\n", "  Q_a: 0.98\n  route: intravenous\n", "platform.route"),
        ("  duration: 30.0\n", "  duration: 30.0\n  rate: 1.0\n", "doses[0].rate"),
    )
    for old, new, path in cases:
        assert old in bench
        with pytest.raises(UsageError) as caught:
            Scenario.from_text(bench.replace(old, new))
        assert str(caught.value) == f"scenario field {path}: unknown"
    with pytest.raises(UsageError) as caught:
        Scenario.from_text(text.replace("  pump_rate: 1.3\n", "  pump_rate: 1.3\n  route: intravenous\n"))
    assert str(caught.value) == "scenario field modulation.route: unknown"
    # a description is a string or absent; any other value, null too, is refused
    line = "description: bench one-shot 130 mg dose, extravascular route, minute-scale kinetics\n"
    assert line in bench
    for value, shown in (("{a: 1}", "{'a': 1}"), ("~", "None"), ("12", "12"), ("true", "True")):
        with pytest.raises(UsageError) as caught:
            Scenario.from_text(bench.replace(line, f"description: {value}\n"))
        assert str(caught.value) == f"scenario field description: must be a string, got {shown}"
    assert Scenario.from_text(bench.replace(line, "")).description == ""
    assert Scenario.from_text(bench.replace(line, "description: '12'\n")).description == "12"


_positive = st.floats(min_value=1e-6, max_value=1e6)
# any text, or one spelled as a YAML 1.2 float without a dot, which the
# writer must quote for the reader to keep it a string
_names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=12) | st.from_regex(
    r"[-+]?[0-9]{1,3}[eE][-+]?[0-9]{1,2}", fullmatch=True
)


@st.composite
def _scenarios(draw) -> Scenario:
    route = draw(st.sampled_from(list(Route)))
    pk = PkParams(
        k_e=draw(_positive),
        V=draw(_positive),
        k_a=draw(st.none() | _positive),
        F=draw(st.floats(min_value=1e-3, max_value=1.0)),
    )
    dt = draw(st.floats(min_value=1e-3, max_value=100.0))
    platform = draw(st.none() | st.builds(
        PlatformConfig, Q_a=_positive, Q_e=_positive, V_a=_positive, V_b=_positive, route=st.just(route)
    ))
    doses = modulation = payload = None
    if draw(st.booleans()):
        doses = DoseSchedule(events=tuple(draw(st.lists(st.builds(
            DoseEvent,
            time=st.floats(min_value=0.0, max_value=1e6),
            mass=st.floats(min_value=0.0, max_value=1e6),
            duration=st.floats(min_value=0.0, max_value=1e3),
        ), max_size=3))))
    else:
        symbol_period = draw(st.floats(min_value=1.0, max_value=1e4))
        dose_mass = draw(_positive)
        pump_rate = draw(st.none() | st.floats(min_value=1.01, max_value=100.0).map(
            lambda factor: dose_mass / symbol_period * factor
        ))
        modulation = ModulationConfig(symbol_period, dose_mass, route, pump_rate)
        payload = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=16)))
    return Scenario(
        name=draw(_names),
        description=draw(st.just("") | _names),
        route=route,
        pk=pk,
        dt=dt,
        horizon=dt * draw(st.floats(min_value=1.5, max_value=1e6)),
        platform=platform,
        doses=doses,
        modulation=modulation,
        payload=payload,
        noise=NoiseConfig(
            sigma=draw(st.floats(min_value=0.0, max_value=10.0)),
            spike_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
            spike_scale=draw(st.floats(min_value=0.0, max_value=10.0)),
        ),
        seed=draw(st.integers(min_value=0, max_value=2**64)),
        nominal_volumes=draw(st.none() | st.tuples(_positive, _positive)),
    )


@given(scenario=_scenarios())
@settings(max_examples=200, deadline=None)
def test_generated_scenarios_round_trip_through_yaml(scenario):
    assert Scenario.from_text(scenario.to_text()) == scenario

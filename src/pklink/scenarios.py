"""Named simulation scenarios and their on-disk format.

A scenario bundles everything one run needs: channel parameters, an
optional hardware (platform) configuration, either a dose schedule or a
modulated bit frame, the sampling grid, noise settings, and a seed.
Scenario files are YAML: nested key-value sections, human-editable, and
round-trip exact (every built-in serializes and re-parses to an equal
value).  The CLI resolves a scenario by built-in name, by a name found in
the directories listed in the MOCOBO_SCENARIO_DIR environment variable,
or by filesystem path.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields, replace

import yaml

from .channel import DoseEvent, DoseSchedule, PkParams, Route
from .errors import PkLinkError, UsageError, shown_path
from .modem import REFERENCE_PAYLOAD, ModulationConfig, frame, modulate_ook
from .signals import MAX_GRID_SAMPLES
from .testbed import PlatformConfig, plan_flows, plan_volumes

SCENARIO_DIR_ENV = "MOCOBO_SCENARIO_DIR"


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that also reads YAML 1.2 floats such as 1e-3.

    It uses libyaml's parser where PyYAML was built with it.  PyYAML's
    Python resolver and SafeConstructor build the values with either
    parser, so a document both parsers accept loads to the same objects.
    YAML 1.1, which PyYAML follows, needs a dot in a float, so 1e-3 would
    load as a string; the YAML 1.2 core-schema float pattern is added
    after the 1.1 ones, so every plain scalar those resolve keeps its
    type.  Quoted scalars are never resolved and stay strings.
    """


class _Dumper(yaml.SafeDumper):
    """Safe dumper that quotes every string _Loader would read as a float."""


for _resolving in (_Loader, _Dumper):
    _resolving.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"),
    )


@contextlib.contextmanager
def _field_errors(key: str):
    """Report a package error inside a section as a usage error on field key.

    A UsageError already names its field (number() raises one) and passes
    through unchanged.
    """
    try:
        yield
    except UsageError:
        raise
    except PkLinkError as exc:
        raise UsageError(f"scenario field {key}: {exc}") from exc


def number(mapping: dict, path: str, default=None) -> float:
    """The finite number under the last key of path; default if the key is absent."""
    value = mapping.get(path.split(".")[-1], default)
    if value is None:
        raise UsageError(f"scenario field {path}: missing")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise UsageError(f"scenario field {path}: must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise UsageError(f"scenario field {path}: must be finite, got {value!r}")
    return out


def _refuse_unknown(mapping: dict, prefix: str, known) -> None:
    for key in mapping:
        if key not in known:
            raise UsageError(f"scenario field {prefix}{key}: unknown")


def _read_fields(cls, mapping: dict, path: str, **given):
    """cls built from mapping, which holds each field of cls not given by name.

    A field whose default is None may be absent or null; any other default
    fills in only for an absent key; a field without a default is required.
    """
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        if f.default is None and mapping.get(f.name) is None:
            values[f.name] = None
        else:
            default = None if f.default is MISSING else f.default
            values[f.name] = number(mapping, f"{path}.{f.name}", default)
    _refuse_unknown(mapping, f"{path}.", values.keys() - given.keys())
    with _field_errors(path):
        return cls(**values)


def _write_fields(obj) -> dict:
    """The fields of obj in declaration order, without route and None values."""
    pairs = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {name: value for name, value in pairs if name != "route" and value is not None}


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise settings applied to received signals."""

    sigma: float = 0.0
    spike_prob: float = 0.0
    spike_scale: float = 0.0

    def __post_init__(self):
        if self.sigma < 0 or self.spike_scale < 0 or not (0.0 <= self.spike_prob <= 1.0):
            raise UsageError(
                f"noise settings out of range: sigma={self.sigma}, "
                f"spike_prob={self.spike_prob}, spike_scale={self.spike_scale}"
            )

    @property
    def silent(self) -> bool:
        return self.sigma == 0.0 and self.spike_prob == 0.0


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible simulation setup."""

    name: str
    description: str
    route: Route
    pk: PkParams
    dt: float
    horizon: float
    platform: PlatformConfig | None = None
    doses: DoseSchedule | None = None
    modulation: ModulationConfig | None = None
    payload: tuple[int, ...] | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int = 0
    nominal_volumes: tuple[float, float] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise UsageError(f"scenario field grid.dt: must be positive, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon > self.dt):
            raise UsageError(f"scenario field grid.horizon: must exceed dt, got {self.horizon}")
        # grid_size() rounds this ratio and adds one
        if not self.horizon / self.dt <= MAX_GRID_SAMPLES - 1:
            raise UsageError(
                f"scenario field grid: horizon {self.horizon} / dt {self.dt} gives more than "
                f"{MAX_GRID_SAMPLES} samples"
            )
        if self.seed < 0:
            raise UsageError(f"scenario field seed: must be >= 0, got {self.seed}")
        if self.doses is None and self.modulation is None:
            raise UsageError("scenario needs either a doses section or a modulation section")
        if self.modulation is not None and self.payload is None:
            raise UsageError("scenario field payload: required when modulation is present")
        if self.payload is not None and not self.payload:
            raise UsageError("scenario field payload: must hold at least one bit")
        for key in ("platform", "modulation"):
            part = getattr(self, key)
            if part is not None and part.route is not self.route:
                raise UsageError(f"scenario field {key}.route: must be the scenario's route, {self.route.value}")
        nominal = self.nominal_volumes
        if nominal is not None and not all(math.isfinite(v) and v > 0 for v in nominal):
            raise UsageError(f"scenario field nominal_volumes: must be positive and finite, got {list(nominal)}")

    def schedule(self) -> DoseSchedule:
        """The dose schedule this scenario transmits."""
        if self.doses is not None:
            return self.doses
        return modulate_ook(frame(self.payload), self.modulation)

    def with_overrides(
        self,
        dt: float | None = None,
        horizon: float | None = None,
        seed: int | None = None,
    ) -> "Scenario":
        """This scenario with each given field replaced, validated once as a whole."""
        given = {"dt": dt, "horizon": horizon, "seed": seed}
        return replace(self, **{key: value for key, value in given.items() if value is not None})

    def grid_size(self) -> int:
        """Number of samples on the scenario grid, endpoint included."""
        return int(round(self.horizon / self.dt)) + 1

    # ---- serialization ----

    def to_mapping(self) -> dict:
        doc: dict = {
            "name": self.name,
            "description": self.description,
            "route": self.route.value,
            "pk": _write_fields(self.pk),
            "grid": {"dt": self.dt, "horizon": self.horizon},
            "noise": _write_fields(self.noise),
            "seed": self.seed,
        }
        if self.platform is not None:
            doc["platform"] = _write_fields(self.platform)
        if self.nominal_volumes is not None:
            doc["nominal_volumes"] = list(self.nominal_volumes)
        if self.doses is not None:
            doc["doses"] = [_write_fields(event) for event in self.doses]
        if self.modulation is not None:
            doc["modulation"] = _write_fields(self.modulation)
        if self.payload is not None:
            doc["payload"] = "".join(str(b) for b in self.payload)
        return doc

    def to_text(self) -> str:
        return yaml.dump(self.to_mapping(), Dumper=_Dumper, sort_keys=False, default_flow_style=False)

    def save(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_mapping(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise UsageError("scenario document must be a mapping")
        _refuse_unknown(doc, "", _TOP_LEVEL_KEYS)

        def section(key, required=False) -> dict:
            value = doc.get(key)
            if value is None:
                if required:
                    raise UsageError(f"scenario field {key}: missing")
                return {}
            if not isinstance(value, dict):
                raise UsageError(f"scenario field {key}: must be a mapping")
            return value

        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise UsageError("scenario field name: must be a non-empty string")
        route_text = doc.get("route")
        try:
            route = Route(route_text)
        except ValueError:
            raise UsageError(
                f"scenario field route: must be one of {[r.value for r in Route]}, got {route_text!r}"
            ) from None

        pk = _read_fields(PkParams, section("pk", required=True), "pk")
        grid = section("grid", required=True)
        _refuse_unknown(grid, "grid.", _GRID_KEYS)
        platform = None
        if "platform" in doc:
            platform = _read_fields(PlatformConfig, section("platform"), "platform", route=route)

        nominal = None
        if "nominal_volumes" in doc:
            raw = doc["nominal_volumes"]
            if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
                raise UsageError("scenario field nominal_volumes: must be a pair [V_a, V_b]")
            pair = dict(zip(("V_a", "V_b"), raw))
            nominal = (number(pair, "nominal_volumes.V_a"), number(pair, "nominal_volumes.V_b"))

        doses = None
        if "doses" in doc:
            raw_doses = doc["doses"]
            if not isinstance(raw_doses, list):
                raise UsageError("scenario field doses: must be a list")
            events = []
            for i, entry in enumerate(raw_doses):
                if not isinstance(entry, dict):
                    raise UsageError(f"scenario field doses[{i}]: must be a mapping")
                events.append(_read_fields(DoseEvent, entry, f"doses[{i}]"))
            doses = DoseSchedule(events=tuple(events))

        modulation = None
        if "modulation" in doc:
            modulation = _read_fields(ModulationConfig, section("modulation"), "modulation", route=route)

        payload = None
        if "payload" in doc:
            raw_payload = doc["payload"]
            if isinstance(raw_payload, str):
                if not raw_payload or any(ch not in "01" for ch in raw_payload):
                    raise UsageError(f"scenario field payload: must be a string of 0/1, got {raw_payload!r}")
                payload = tuple(int(ch) for ch in raw_payload)
            elif isinstance(raw_payload, (list, tuple)):
                if any(b not in (0, 1) for b in raw_payload):
                    raise UsageError(f"scenario field payload: bits must be 0/1, got {raw_payload!r}")
                payload = tuple(int(b) for b in raw_payload)
            else:
                raise UsageError("scenario field payload: must be a bit string or list")

        noise = _read_fields(NoiseConfig, section("noise"), "noise")

        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise UsageError(f"scenario field seed: must be an integer, got {seed!r}")
        description = doc.get("description", "")
        if not isinstance(description, str):
            raise UsageError(f"scenario field description: must be a string, got {description!r}")

        return cls(
            name=name,
            description=description,
            route=route,
            pk=pk,
            dt=number(grid, "grid.dt"),
            horizon=number(grid, "grid.horizon"),
            platform=platform,
            doses=doses,
            modulation=modulation,
            payload=payload,
            noise=noise,
            seed=seed,
            nominal_volumes=nominal,
        )

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        try:
            doc = yaml.load(text, Loader=_Loader)
        except (yaml.YAMLError, UnicodeEncodeError) as exc:
            # libyaml reads UTF-8, so a lone surrogate fails as an encoding
            # error where the Python reader reports a non-printable character.
            raise UsageError(f"scenario parse error: {exc}") from exc
        return cls.from_mapping(doc)

    @classmethod
    def load(cls, path) -> "Scenario":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read scenario file {shown_path(path)}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"cannot decode scenario file {shown_path(path)}: {exc}") from exc
        return cls.from_text(text)


# Keys of the grid section, and of the document itself.
_GRID_KEYS = ("dt", "horizon")
_TOP_LEVEL_KEYS = {f.name for f in fields(Scenario) if f.name not in _GRID_KEYS} | {"grid"}


def _bench_pk() -> tuple[PkParams, tuple[float, float], float]:
    k_a, k_e, flow = 3.27e-3, 1.51e-3, 9.8e-1
    v_a, v_b = plan_volumes(k_a, k_e, flow)
    pk = PkParams(k_e=k_e, V=v_b, k_a=k_a, F=1.0)
    return pk, (v_a, v_b), flow


def _built_in_list() -> list[Scenario]:
    scenarios = []

    # Slow-absorption oral dosing at human scale: 1 g dose, litre-range
    # distribution volume, day-long elimination.
    hk_a, hk_e, hv_a, hv_b = 2.89e-4, 4.47e-5, 355.0, 2292.0
    hq_a, hq_e = plan_flows(hk_a, hk_e, hv_a, hv_b)
    scenarios.append(
        Scenario(
            name="human-oral",
            description="oral 1 g dose at human scale; slow elimination, day-long horizon",
            route=Route.EXTRAVASCULAR,
            pk=PkParams(k_e=hk_e, V=hv_b, k_a=hk_a, F=1.0),
            dt=1.0,
            horizon=270000.0,
            platform=PlatformConfig(Q_a=hq_a, Q_e=hq_e, V_a=hv_a, V_b=hv_b, route=Route.EXTRAVASCULAR),
            doses=DoseSchedule(events=(DoseEvent(time=0.0, mass=1000.0, duration=30.0),)),
            seed=1,
        )
    )

    # Flip-flop oral dosing at rat scale: absorption slower than
    # elimination, so the terminal slope reports k_a, not k_e.
    rk_a, rk_e, rv_a, rv_b = 1.69e-4, 5.08e-4, 605.0, 202.0
    rq_a, rq_e = plan_flows(rk_a, rk_e, rv_a, rv_b)
    scenarios.append(
        Scenario(
            name="rat-oral",
            description="oral 522 mg dose at rat scale; flip-flop kinetics (k_a < k_e)",
            route=Route.EXTRAVASCULAR,
            pk=PkParams(k_e=rk_e, V=rv_b, k_a=rk_a, F=1.0),
            dt=1.0,
            horizon=72000.0,
            platform=PlatformConfig(Q_a=rq_a, Q_e=rq_e, V_a=rv_a, V_b=rv_b, route=Route.EXTRAVASCULAR),
            doses=DoseSchedule(events=(DoseEvent(time=0.0, mass=522.0, duration=30.0),)),
            seed=2,
        )
    )

    # Bench self-test scale.  The published hardware sheet lists vessel
    # volumes (650, 300) mL alongside these rate constants and a shared
    # 0.98 mL/s flow, but the flow/volume relations Q = k*V require
    # (299.7, 649.0) mL: the listed pair appears swapped.  The planned,
    # self-consistent volumes drive the simulation; the listed pair is
    # kept as nominal_volumes so planning tools can flag the discrepancy.
    bench_pk, (bv_a, bv_b), bflow = _bench_pk()
    for route, seed in ((Route.INTRAVENOUS, 3), (Route.EXTRAVASCULAR, 4)):
        scenarios.append(
            Scenario(
                name=f"bench-{'iv' if route is Route.INTRAVENOUS else 'ev'}",
                description=f"bench one-shot 130 mg dose, {route.value} route, minute-scale kinetics",
                route=route,
                pk=bench_pk,
                dt=1.0,
                horizon=8000.0,
                platform=PlatformConfig(Q_a=bflow, Q_e=bflow, V_a=bv_a, V_b=bv_b, route=route),
                doses=DoseSchedule(events=(DoseEvent(time=0.0, mass=130.0, duration=30.0),)),
                seed=seed,
                nominal_volumes=(650.0, 300.0),
            )
        )

    # Frame transmission demo: preamble plus the payload that covers every
    # adjacent bit pair, pump-delivered doses, one dose per 1-bit.
    for route, seed in ((Route.INTRAVENOUS, 5), (Route.EXTRAVASCULAR, 6)):
        scenarios.append(
            Scenario(
                name=f"link-{'iv' if route is Route.INTRAVENOUS else 'ev'}",
                description=f"11-bit frame over the {route.value} route, 600 s symbols, pump dosing",
                route=route,
                pk=bench_pk,
                dt=5.0,
                horizon=15000.0,
                platform=PlatformConfig(Q_a=bflow, Q_e=bflow, V_a=bv_a, V_b=bv_b, route=route),
                modulation=ModulationConfig(
                    symbol_period=600.0, dose_mass=130.0, route=route, pump_rate=1.3
                ),
                payload=REFERENCE_PAYLOAD,
                seed=seed,
            )
        )
    return scenarios


_BUILT_INS = {s.name: s for s in _built_in_list()}


def builtin_scenarios() -> dict[str, Scenario]:
    """Name -> scenario mapping of the compiled-in scenarios."""
    return dict(_BUILT_INS)


def search_directories() -> list[str]:
    """Extra scenario directories from the MOCOBO_SCENARIO_DIR variable."""
    raw = os.environ.get(SCENARIO_DIR_ENV, "")
    return [d for d in raw.split(os.pathsep) if d]


def resolve_scenario(name_or_path: str) -> Scenario:
    """Resolve a scenario by built-in name, search-path name, or file path."""
    if name_or_path in _BUILT_INS:
        return _BUILT_INS[name_or_path]
    for directory in search_directories():
        for candidate in (name_or_path, f"{name_or_path}.yaml", f"{name_or_path}.yml"):
            path = os.path.join(directory, candidate)
            if os.path.isfile(path):
                return Scenario.load(path)
    if os.path.isfile(name_or_path):
        return Scenario.load(name_or_path)
    names = ", ".join(sorted(_BUILT_INS))
    raise UsageError(f"unknown scenario {name_or_path!r}; built-in scenarios: {names}")

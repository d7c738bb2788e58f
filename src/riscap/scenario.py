"""Scenario files: schema, validation, serialization.

The on-disk format is YAML with nested sections (see README for the full
grammar).  dB/dBm spellings are accepted for powers, gains, and K-factors
and converted here; the in-memory model is strictly linear.  Serializing
always emits the linear spellings so that serialize -> parse round-trips
to an identical in-memory scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import yaml

from .channel import outdated_correlation
from .errors import ScenarioError
from .geometry import Point3, RisPanel
from .pathloss import LinkBudget
from .units import db_to_linear, dbm_to_watts

MODES = ("auto", "near", "far")


@dataclass(frozen=True)
class DopplerSpec:
    """Aging triple from which the correlation coefficient is derived."""

    fc_hz: float
    v_mps: float
    ts_s: float

    def rho(self) -> float:
        return outdated_correlation(self.fc_hz, self.v_mps, self.ts_s)


@dataclass(frozen=True)
class PanelSetup:
    """One panel plus its fading and aging parameters (linear K factors)."""

    panel: RisPanel
    k1: float
    k2: float
    rho: Optional[float] = None
    doppler: Optional[DopplerSpec] = None

    def aging_rho(self) -> float:
        if self.rho is not None:
            return self.rho
        if self.doppler is None:
            raise ValueError("panel needs either rho or a doppler triple")
        return self.doppler.rho()


@dataclass(frozen=True)
class Scenario:
    """A fully described experiment: geometry, channels, link budget."""

    bs: Point3
    user: Point3
    kind: str  # "centralized" | "distributed"
    panels: tuple[PanelSetup, ...]
    k0: float
    budget: LinkBudget
    fc_hz: float
    rho0: Optional[float] = None
    doppler0: Optional[DopplerSpec] = None
    mode: str = "auto"
    fixed_total_elements: Optional[int] = None

    def aging_rho0(self) -> float:
        if self.rho0 is not None:
            return self.rho0
        if self.doppler0 is None:
            raise ValueError("scenario needs either rho0 or a doppler0 triple")
        return self.doppler0.rho()


def _as_number(value, path: str) -> float:
    """Coerce a YAML scalar to float.

    Strings are accepted when they parse as numbers because YAML 1.1 reads
    exponents without a sign ("5.0e9") as strings.  NaN and infinities are
    rejected: no scenario quantity is meaningful at them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ScenarioError(f"{path}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return number


class _Section:
    """Mapping view that tracks its path for error messages."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ScenarioError(f"{path}: expected a mapping, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def child(self, key: str) -> "_Section":
        return _Section(self.require(key), f"{self.path}.{key}")

    def require(self, key: str):
        if key not in self.data:
            raise ScenarioError(f"{self.path}.{key}: required field is missing")
        self.seen.add(key)
        return self.data[key]

    def optional(self, key: str, default=None):
        self.seen.add(key)
        return self.data.get(key, default)

    def number(self, key: str) -> float:
        return _as_number(self.require(key), f"{self.path}.{key}")

    def integer(self, key: str) -> int:
        value = self.require(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{self.path}.{key}: expected an integer, got {value!r}")
        return value

    def one_of(self, *keys: str) -> tuple[str, object]:
        present = [k for k in keys if k in self.data]
        if len(present) > 1:
            raise ScenarioError(
                f"{self.path}: fields {present} are mutually exclusive; give exactly one"
            )
        if not present:
            raise ScenarioError(f"{self.path}: one of {list(keys)} is required")
        key = present[0]
        return key, self.require(key)

    def reject_unknown(self, known: set[str]) -> None:
        unknown = set(self.data) - known
        if unknown:
            raise ScenarioError(
                f"{self.path}: unknown fields {sorted(unknown)}; known fields are {sorted(known)}"
            )


def _point(section: _Section) -> Point3:
    section.reject_unknown({"x", "y", "z"})
    try:
        return Point3(section.number("x"), section.number("y"), section.number("z"))
    except ValueError as exc:
        raise ScenarioError(f"{section.path}: {exc}") from exc


def _panel(section: _Section) -> RisPanel:
    section.reject_unknown({"center", "mx", "my", "dx", "dy"})
    try:
        return RisPanel(
            center=_point(section.child("center")),
            mx=section.integer("mx"),
            my=section.integer("my"),
            dx=section.number("dx"),
            dy=section.number("dy"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{section.path}: {exc}") from exc


def _to_linear(number: float, path: str, convert=db_to_linear) -> float:
    """A dB (or, with dbm_to_watts, dBm) number of field `path` in linear
    units."""
    try:
        return convert(number)
    except OverflowError:
        raise ScenarioError(f"{path}: {number!r} is out of float range in linear units") from None


def _linear_or_db(section: _Section, base: str) -> float:
    """Read `base` (linear) or `base`_db, whichever is present."""
    key, value = section.one_of(base, f"{base}_db")
    path = f"{section.path}.{key}"
    number = _as_number(value, path)
    return _to_linear(number, path) if key.endswith("_db") else number


def _watts_or_dbm(section: _Section, base: str) -> float:
    """Read `base`_w or `base`_dbm, whichever is present, in watts."""
    key, value = section.one_of(f"{base}_dbm", f"{base}_w")
    path = f"{section.path}.{key}"
    number = _as_number(value, path)
    return _to_linear(number, path, dbm_to_watts) if key.endswith("_dbm") else number


def _broadcast(section: _Section, key: str, value, n: int) -> list:
    """A scalar repeated for n panels, or a per-panel list of n values."""
    raw = value if isinstance(value, list) else [value] * n
    if len(raw) != n:
        raise ScenarioError(f"{section.path}.{key}: expected {n} per-panel values, got {len(raw)}")
    return raw


def _correlation(value, path: str) -> float:
    rho = _as_number(value, path)
    if not (0.0 <= rho <= 1.0):
        raise ScenarioError(f"{path}: correlation must lie in [0, 1]")
    return rho


def _per_panel_values(section: _Section, base: str, n: int) -> list[float]:
    """Scalar (broadcast) or per-panel list, linear or dB spelling."""
    key, value = section.one_of(base, f"{base}_db")
    out = []
    for i, v in enumerate(_broadcast(section, key, value, n)):
        path = f"{section.path}.{key}[{i}]"
        number = _as_number(v, path)
        out.append(_to_linear(number, path) if key.endswith("_db") else number)
    return out


def _doppler(section: _Section, default_fc: float) -> DopplerSpec:
    section.reject_unknown({"fc_hz", "v_mps", "ts_s"})
    fc = _as_number(section.optional("fc_hz", default_fc), f"{section.path}.fc_hz")
    return DopplerSpec(fc_hz=fc, v_mps=section.number("v_mps"), ts_s=section.number("ts_s"))


def _aging(
    section: _Section, rho_key: str, doppler_key: str, default_fc: float
) -> tuple[Optional[float], Optional[DopplerSpec]]:
    key, value = section.one_of(rho_key, doppler_key)
    if key == doppler_key:
        return None, _doppler(section.child(doppler_key), default_fc)
    return _correlation(value, f"{section.path}.{key}"), None


def _per_panel_aging(
    section: _Section, n: int, default_fc: float
) -> list[tuple[Optional[float], Optional[DopplerSpec]]]:
    key, value = section.one_of("rho", "doppler")
    if key == "doppler":
        spec = _doppler(section.child("doppler"), default_fc)
        return [(None, spec)] * n
    raw = _broadcast(section, "rho", value, n)
    return [(_correlation(v, f"{section.path}.rho[{i}]"), None) for i, v in enumerate(raw)]


def parse_scenario(data: dict) -> Scenario:
    """Validate a raw mapping against the scenario schema."""
    root = _Section(data, "scenario")
    root.reject_unknown({"fc_hz", "mode", "bs", "user", "deployment", "channel", "budget"})

    fc_hz = root.number("fc_hz")
    if fc_hz <= 0:
        raise ScenarioError("scenario.fc_hz: must be positive")
    mode = root.optional("mode", "auto")
    if mode not in MODES:
        raise ScenarioError(f"scenario.mode: must be one of {MODES}, got {mode!r}")

    bs = _point(root.child("bs"))
    user = _point(root.child("user"))

    deployment = root.child("deployment")
    kind = deployment.require("kind")
    if kind == "centralized":
        deployment.reject_unknown({"kind", "panel", "fixed_total_elements"})
        panels = [_panel(deployment.child("panel"))]
    elif kind == "distributed":
        deployment.reject_unknown({"kind", "panels", "fixed_total_elements"})
        raw_panels = deployment.require("panels")
        if not isinstance(raw_panels, list) or not raw_panels:
            raise ScenarioError(f"{deployment.path}.panels: expected a non-empty list")
        panels = [
            _panel(_Section(p, f"{deployment.path}.panels[{i}]"))
            for i, p in enumerate(raw_panels)
        ]
    else:
        raise ScenarioError(
            f"{deployment.path}.kind: must be 'centralized' or 'distributed', got {kind!r}"
        )
    fixed_total = deployment.optional("fixed_total_elements")
    if fixed_total is not None and (isinstance(fixed_total, bool) or not isinstance(fixed_total, int) or fixed_total < 1):
        raise ScenarioError(
            f"{deployment.path}.fixed_total_elements: expected a positive integer"
        )
    # one element size everywhere: the aperture reference constant is
    # defined once per scenario
    sizes = {(p.dx, p.dy) for p in panels}
    if len(sizes) > 1:
        raise ScenarioError(
            f"{deployment.path}.panels: all panels must share one element size, got {sorted(sizes)}"
        )

    channel = root.child("channel")
    channel.reject_unknown(
        {"k0", "k0_db", "k1", "k1_db", "k2", "k2_db", "rho0", "doppler0", "rho", "doppler"}
    )
    k0 = _linear_or_db(channel, "k0")
    if k0 < 0:
        raise ScenarioError("scenario.channel.k0: K-factor must be >= 0")
    k1s = _per_panel_values(channel, "k1", len(panels))
    k2s = _per_panel_values(channel, "k2", len(panels))
    for name, values in (("k1", k1s), ("k2", k2s)):
        for i, v in enumerate(values):
            if v < 0:
                raise ScenarioError(f"scenario.channel.{name}[{i}]: K-factor must be >= 0")
    rho0, doppler0 = _aging(channel, "rho0", "doppler0", fc_hz)
    panel_aging = _per_panel_aging(channel, len(panels), fc_hz)

    budget_sec = root.child("budget")
    budget_sec.reject_unknown(
        {"p_dbm", "p_w", "noise_dbm", "noise_w", "gt", "gt_db", "gr", "gr_db", "eta_db", "xi"}
    )
    tx_power = _watts_or_dbm(budget_sec, "p")
    noise_power = _watts_or_dbm(budget_sec, "noise")
    try:
        budget = LinkBudget(
            gt=_linear_or_db(budget_sec, "gt"),
            gr=_linear_or_db(budget_sec, "gr"),
            tx_power=tx_power,
            noise_power=noise_power,
            eta_db=budget_sec.number("eta_db"),
            xi=budget_sec.number("xi"),
        )
    except ValueError as exc:
        raise ScenarioError(f"scenario.budget: {exc}") from exc

    setups = tuple(
        PanelSetup(panel=p, k1=k1, k2=k2, rho=rho, doppler=dop)
        for p, k1, k2, (rho, dop) in zip(panels, k1s, k2s, panel_aging)
    )
    return Scenario(
        bs=bs,
        user=user,
        kind=kind,
        panels=setups,
        k0=k0,
        budget=budget,
        fc_hz=fc_hz,
        rho0=rho0,
        doppler0=doppler0,
        mode=mode,
        fixed_total_elements=fixed_total,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario file is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario: top level must be a mapping")
    return parse_scenario(data)


def _point_dict(p: Point3) -> dict:
    return {"x": p.x, "y": p.y, "z": p.z}


def _panel_dict(p: RisPanel) -> dict:
    return {
        "center": _point_dict(p.center),
        "mx": p.mx,
        "my": p.my,
        "dx": p.dx,
        "dy": p.dy,
    }


def _doppler_dict(d: DopplerSpec) -> dict:
    return {"fc_hz": d.fc_hz, "v_mps": d.v_mps, "ts_s": d.ts_s}


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical (all-linear) mapping; parse(scenario_to_dict(s)) == s."""
    if s.kind == "centralized":
        deployment = {"kind": "centralized", "panel": _panel_dict(s.panels[0].panel)}
    else:
        deployment = {
            "kind": "distributed",
            "panels": [_panel_dict(ps.panel) for ps in s.panels],
        }
    if s.fixed_total_elements is not None:
        deployment["fixed_total_elements"] = s.fixed_total_elements

    channel: dict = {"k0": s.k0, "k1": [ps.k1 for ps in s.panels], "k2": [ps.k2 for ps in s.panels]}
    if s.rho0 is not None:
        channel["rho0"] = s.rho0
    else:
        channel["doppler0"] = _doppler_dict(s.doppler0)
    if all(ps.rho is not None for ps in s.panels):
        channel["rho"] = [ps.rho for ps in s.panels]
    else:
        # Mixed rho/doppler panels cannot arise from parsing (one key rules
        # all panels), so the first panel's spec is authoritative.
        channel["doppler"] = _doppler_dict(s.panels[0].doppler)

    return {
        "fc_hz": s.fc_hz,
        "mode": s.mode,
        "bs": _point_dict(s.bs),
        "user": _point_dict(s.user),
        "deployment": deployment,
        "channel": channel,
        "budget": {
            "p_w": s.budget.tx_power,
            "noise_w": s.budget.noise_power,
            "gt": s.budget.gt,
            "gr": s.budget.gr,
            "eta_db": s.budget.eta_db,
            "xi": s.budget.xi,
        },
    }


def dump_scenario(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=False)


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_scenario(s))

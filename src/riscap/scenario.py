"""Scenario files: schema, validation, serialization.

The on-disk format is YAML with nested sections (see README for the full
grammar).  A field with more than one spelling (a K-factor in linear units
or dB, a power in watts or dBm, a gain linear or in dB, a correlation
given directly or as a Doppler triple) is read by one reader, ``_field``:
it takes whichever spelling is present, converts dB/dBm to linear units,
resolves a Doppler triple to its aging correlation J0(2 pi f_d T_s),
repeats a scalar for every panel or reads a per-panel list, and checks
each value under the path of the key as written.  The in-memory model is
strictly linear and holds plain correlations.  Serializing always emits
the linear spellings (rho, rho0 for a triple) so that serialize -> parse
round-trips to an identical in-memory scenario.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import yaml

from .channel import outdated_correlation
from .errors import NegativeCorrelation, ScenarioError
from .geometry import Point3, RisPanel, check_panel
from .pathloss import LinkBudget
from .units import db_to_linear, dbm_to_watts

MODES = ("auto", "near", "far")


@dataclass(frozen=True)
class PanelSetup:
    """One panel plus its fading (linear K factors) and aging correlation."""

    panel: RisPanel
    k1: float
    k2: float
    rho: float


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
    rho0: float
    mode: str = "auto"
    fixed_total_elements: Optional[int] = None


def _as_number(value, path: str) -> float:
    """Coerce a YAML scalar to float.

    Strings are accepted when they parse as numbers because YAML 1.1 reads
    exponents without a sign ("5.0e9") as strings.  NaN and infinities are
    rejected: no scenario quantity is meaningful at them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ScenarioError(f"expected a number, got {value!r}", (path,))
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ScenarioError(f"expected a number, got {value!r}", (path,)) from None
    if not math.isfinite(number):
        raise ScenarioError(f"expected a finite number, got {value!r}", (path,))
    return number


class _Section:
    """Mapping view that tracks its path for error messages."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ScenarioError(f"expected a mapping, got {type(data).__name__}", (path,))
        self.data = data
        self.path = path

    def child(self, key: str) -> "_Section":
        return _Section(self.require(key), f"{self.path}.{key}")

    def require(self, key: str):
        if key not in self.data:
            raise ScenarioError("required field is missing", (f"{self.path}.{key}",))
        return self.data[key]

    def optional(self, key: str, default=None):
        return self.data.get(key, default)

    def number(self, key: str) -> float:
        return _as_number(self.require(key), f"{self.path}.{key}")

    def integer(self, key: str) -> int:
        value = self.require(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"expected an integer, got {value!r}", (f"{self.path}.{key}",))
        return value

    def one_of(self, *keys: str) -> tuple[str, object]:
        present = [k for k in keys if k in self.data]
        if len(present) > 1:
            raise ScenarioError(
                f"fields {present} are mutually exclusive; give exactly one", (self.path,)
            )
        if not present:
            raise ScenarioError(f"one of {list(keys)} is required", (self.path,))
        key = present[0]
        return key, self.require(key)

    def reject_unknown(self, known: set[str]) -> None:
        unknown = set(self.data) - known
        if unknown:
            raise ScenarioError(
                # key=str: YAML keys may be numbers, booleans or null too
                f"unknown fields {sorted(unknown, key=str)}; known fields are {sorted(known)}",
                (self.path,),
            )


def check_structure(*, mode="auto", kind="centralized", panel_count=1) -> None:
    """Raise the parser's ScenarioError for an unknown mode or deployment
    kind, or no panels; an argument left at its default passes."""
    if mode not in MODES:
        raise ScenarioError(f"must be one of {MODES}, got {mode!r}", ("scenario.mode",))
    if kind not in ("centralized", "distributed"):
        raise ScenarioError(
            f"must be 'centralized' or 'distributed', got {kind!r}", ("scenario.deployment.kind",)
        )
    if panel_count < 1:
        raise ScenarioError("expected a non-empty list", ("scenario.deployment.panels",))


def _point(section: _Section) -> Point3:
    section.reject_unknown({"x", "y", "z"})
    return Point3(section.number("x"), section.number("y"), section.number("z"))


def _panel(section: _Section) -> RisPanel:
    section.reject_unknown({"center", "mx", "my", "dx", "dy"})
    center = _point(section.child("center"))
    mx, my = section.integer("mx"), section.integer("my")
    dx, dy = section.number("dx"), section.number("dy")
    check_panel(mx, my, dx, dy, section.path)
    return RisPanel(center=center, mx=mx, my=my, dx=dx, dy=dy)


# per-value checks of _field: the test a value in linear units must pass,
# and the message it fails with under the path of the key as written
# ({!r} is the number as written)
_K_FACTOR = (lambda v: v >= 0, "K-factor must be >= 0")
_CORRELATION = (lambda v: 0.0 <= v <= 1.0, "correlation must lie in [0, 1], got {!r}")
_POSITIVE = (lambda v: v > 0, "must be positive in linear units, got {!r}")


def _doppler(section: _Section, default_fc: float) -> float:
    """The aging correlation J0(2 pi f_d T_s) of a Doppler triple; a triple
    the model cannot take raises ScenarioError naming the section."""
    section.reject_unknown({"fc_hz", "v_mps", "ts_s"})
    fc = _as_number(section.optional("fc_hz", default_fc), f"{section.path}.fc_hz")
    try:
        return outdated_correlation(fc, section.number("v_mps"), section.number("ts_s"))
    except (ValueError, NegativeCorrelation) as exc:
        raise ScenarioError(str(exc), (section.path,)) from None


def _field(section: _Section, keys: tuple[str, ...], check, n: Optional[int] = None, fc_hz=None):
    """The one field spelled by whichever of keys is present, in linear
    units: a number, or given n panels a list of n numbers (a scalar is
    repeated for every panel).  A key ending in _db or _dbm is converted
    from dB or dBm, and a doppler key's triple resolves to its correlation
    at default carrier fc_hz.  Every value must pass check, else a
    ScenarioError names the key as written (and the value's index)."""
    key, value = section.one_of(*keys)
    path = f"{section.path}.{key}"
    if key.startswith("doppler"):
        # one triple for every panel
        numbers = [(path, _doppler(section.child(key), fc_hz))] * (n or 1)
    else:
        if n is None:
            written = [(path, value)]
        else:
            values = value if isinstance(value, list) else [value] * n
            if len(values) != n:
                raise ScenarioError(f"expected {n} per-panel values, got {len(values)}", (path,))
            written = [(f"{path}[{i}]", v) for i, v in enumerate(values)]
        numbers = [(where, _as_number(v, where)) for where, v in written]
    convert = (
        dbm_to_watts if key.endswith("_dbm") else db_to_linear if key.endswith("_db") else None
    )
    test, message = check
    out = []
    for where, number in numbers:
        try:
            linear = convert(number) if convert else number
        except OverflowError:
            raise ScenarioError(f"{number!r} is out of float range in linear units", (where,)) from None
        if not test(linear):
            raise ScenarioError(message.format(number), (where,))
        out.append(linear)
    return out[0] if n is None else out


def parse_scenario(data: dict) -> Scenario:
    """Validate a raw mapping against the scenario schema."""
    root = _Section(data, "scenario")
    root.reject_unknown({"fc_hz", "mode", "bs", "user", "deployment", "channel", "budget"})

    fc_hz = root.number("fc_hz")
    if fc_hz <= 0:
        raise ScenarioError("must be positive", ("scenario.fc_hz",))
    mode = root.optional("mode", "auto")
    check_structure(mode=mode)

    bs = _point(root.child("bs"))
    user = _point(root.child("user"))

    deployment = root.child("deployment")
    kind = deployment.require("kind")
    check_structure(kind=kind)
    if kind == "centralized":
        deployment.reject_unknown({"kind", "panel", "fixed_total_elements"})
        panels = [_panel(deployment.child("panel"))]
    else:
        deployment.reject_unknown({"kind", "panels", "fixed_total_elements"})
        raw_panels = deployment.require("panels")
        check_structure(panel_count=len(raw_panels) if isinstance(raw_panels, list) else 0)
        panels = [
            _panel(_Section(p, f"{deployment.path}.panels[{i}]"))
            for i, p in enumerate(raw_panels)
        ]
    fixed_total = deployment.optional("fixed_total_elements")
    if fixed_total is not None and (isinstance(fixed_total, bool) or not isinstance(fixed_total, int) or fixed_total < 1):
        raise ScenarioError(
            "expected a positive integer", (f"{deployment.path}.fixed_total_elements",)
        )
    # one element size everywhere: the aperture reference constant is
    # defined once per scenario
    sizes = {(p.dx, p.dy) for p in panels}
    if len(sizes) > 1:
        raise ScenarioError(
            f"all panels must share one element size, got {sorted(sizes)}",
            (f"{deployment.path}.panels",),
        )

    channel = root.child("channel")
    channel.reject_unknown(
        {"k0", "k0_db", "k1", "k1_db", "k2", "k2_db", "rho0", "doppler0", "rho", "doppler"}
    )
    n = len(panels)
    k0 = _field(channel, ("k0", "k0_db"), _K_FACTOR)
    k1s = _field(channel, ("k1", "k1_db"), _K_FACTOR, n)
    k2s = _field(channel, ("k2", "k2_db"), _K_FACTOR, n)
    rho0 = _field(channel, ("rho0", "doppler0"), _CORRELATION, fc_hz=fc_hz)
    rhos = _field(channel, ("rho", "doppler"), _CORRELATION, n, fc_hz)

    budget_sec = root.child("budget")
    budget_sec.reject_unknown(
        {"p_dbm", "p_w", "noise_dbm", "noise_w", "gt", "gt_db", "gr", "gr_db", "eta_db", "xi"}
    )
    tx_power = _field(budget_sec, ("p_dbm", "p_w"), _POSITIVE)
    noise_power = _field(budget_sec, ("noise_dbm", "noise_w"), _POSITIVE)
    xi = budget_sec.number("xi")
    if xi <= 0:
        raise ScenarioError("path-loss exponent must be positive", ("scenario.budget.xi",))
    # every LinkBudget condition is checked above, at its own field
    budget = LinkBudget(
        gt=_field(budget_sec, ("gt", "gt_db"), _POSITIVE),
        gr=_field(budget_sec, ("gr", "gr_db"), _POSITIVE),
        tx_power=tx_power,
        noise_power=noise_power,
        eta_db=budget_sec.number("eta_db"),
        xi=xi,
    )

    setups = tuple(
        PanelSetup(panel=p, k1=k1, k2=k2, rho=rho)
        for p, k1, k2, rho in zip(panels, k1s, k2s, rhos)
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
        mode=mode,
        fixed_total_elements=fixed_total,
    )


# libyaml's parser when PyYAML was built with it (about 7x faster), else
# the pure-Python one; both build the same data
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _unreadable(message: str) -> ScenarioError:
    """A scenario file that cannot be read or parsed: field "scenario", not in the text."""
    return ScenarioError(message, ("scenario",), named=1)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError as exc:
        raise _unreadable(f"scenario file not found: {path}") from exc
    except OSError as exc:
        raise _unreadable(f"scenario file cannot be read: {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _unreadable(f"scenario file is not UTF-8 text: {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise _unreadable(f"scenario file is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("top level must be a mapping", ("scenario",))
    return parse_scenario(data)


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical (all-linear) mapping; parse(scenario_to_dict(s)) == s.
    Point3 and RisPanel list their fields in the schema's key order.  A
    mode, kind or panel count the parser rejects raises its error."""
    check_structure(mode=s.mode, kind=s.kind, panel_count=len(s.panels))
    panels = [dataclasses.asdict(ps.panel) for ps in s.panels]
    if s.kind == "centralized":
        deployment = {"kind": "centralized", "panel": panels[0]}
    else:
        deployment = {"kind": "distributed", "panels": panels}
    if s.fixed_total_elements is not None:
        deployment["fixed_total_elements"] = s.fixed_total_elements

    channel = {
        "k0": s.k0,
        "k1": [ps.k1 for ps in s.panels],
        "k2": [ps.k2 for ps in s.panels],
        "rho0": s.rho0,
        "rho": [ps.rho for ps in s.panels],
    }

    return {
        "fc_hz": s.fc_hz,
        "mode": s.mode,
        "bs": dataclasses.asdict(s.bs),
        "user": dataclasses.asdict(s.user),
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

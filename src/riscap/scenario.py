"""Scenarios: the records, their invariants, and the scenario file.

``Scenario``, ``PanelSetup``, ``pathloss.LinkBudget``, ``geometry.RisPanel``
and ``geometry.Point3`` check their own fields in ``__post_init__``, however
they are built, raising ``ScenarioError`` that names the attribute (``k0``,
``rho``, ``gt``, ``dx``, ``x``), or its path across records (``user.z``,
``panels[1].panel.center.z``): a ``Scenario`` that exists can run.  Counts,
K-factors and correlations are checked by ``errors``' checkers, which the
Monte Carlo records use too.

The on-disk format is YAML with nested sections (see README).  The parser
checks only what depends on the writing: YAML types and finiteness,
unknown or missing keys, per-panel list lengths.  ``_field`` reads a field
of several spellings in linear units (dB/dBm converted, a Doppler triple
resolved to its correlation), and ``_build`` renames a record's failing
fields to the keys as written (``scenario.channel.k1_db[1]``,
``scenario.deployment.panels[1].center.z``), as ``written_keys`` does
for a run of the file's Scenario.  Serializing
emits the linear spellings, so serialize -> parse round-trips exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import yaml

from .channel import outdated_correlation
from .errors import NegativeCorrelation, ScenarioError, ValidationFailure, renamed
from .errors import check_correlation, check_integer, check_k_factor
from .geometry import Point3, RisPanel
from .pathloss import OUT_OF_RANGE, LinkBudget, beta0_reference, direct_pathloss, loss_factor
from .units import db_to_linear, dbm_to_watts

MODES = ("auto", "near", "far")


def _kind(kind) -> None:
    if kind not in ("centralized", "distributed"):
        raise ScenarioError(f"must be 'centralized' or 'distributed', got {kind!r}", ("kind",))


@dataclass(frozen=True)
class PanelSetup:
    """One panel plus its fading (linear K factors) and aging correlation."""

    panel: RisPanel
    k1: float
    k2: float
    rho: float

    def __post_init__(self):
        check_k_factor("k1", self.k1)
        check_k_factor("k2", self.k2)
        check_correlation("rho", self.rho)


@dataclass(frozen=True)
class Scenario:
    """A fully described experiment: geometry, channels, link budget.  Its
    panels (one if centralized) share one element size, as the aperture
    reference constant is defined once per scenario; that constant and
    the direct-link loss are in float range; both endpoints lie strictly
    above every panel plane (else naming ``user.z`` and the panel centre)."""

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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(f"must be one of {MODES}, got {self.mode!r}", ("mode",))
        _kind(self.kind)
        if not self.panels:
            raise ScenarioError("expected a non-empty list", ("panels",))
        if self.kind == "centralized" and len(self.panels) != 1:
            raise ScenarioError(
                f"a centralized deployment has one panel, got {len(self.panels)}", ("kind", "panels")
            )
        sizes = {(ps.panel.dx, ps.panel.dy) for ps in self.panels}
        if len(sizes) > 1:
            raise ScenarioError(
                f"all panels must share one element size, got {sorted(sizes)}", ("panels",)
            )
        if self.fixed_total_elements is not None:
            check_integer("fixed_total_elements", self.fixed_total_elements)
        check_k_factor("k0", self.k0)
        check_correlation("rho0", self.rho0)
        if not 0 < self.fc_hz < math.inf:
            raise ScenarioError("must be positive and finite", ("fc_hz",))
        d0, budget = self.bs.distance_to(self.user), self.budget
        if d0 == 0:
            raise ScenarioError("the endpoints coincide", ("bs", "user"))
        if loss_factor(direct_pathloss, d0, budget.eta_db, budget.xi) == math.inf:
            raise ScenarioError(
                f"direct link at eta_db={budget.eta_db:g}, xi={budget.xi:g} "
                f"over the {d0:g} m bs-user distance: {OUT_OF_RANGE}",
                ("bs", "user", "budget.eta_db", "budget.xi"),
            )
        for i, setup in enumerate(self.panels):
            z0 = setup.panel.center.z
            for name, point in (("bs", self.bs), ("user", self.user)):
                if point.z <= z0:
                    raise ScenarioError(
                        f"endpoint z={point.z} must lie strictly above the panel plane z={z0}",
                        (f"{name}.z", f"panels[{i}].panel.center.z"),
                    )
        gt, gr, panel = budget.gt, budget.gr, self.panels[0].panel
        if loss_factor(beta0_reference, gt, gr, panel.dx, panel.dy) == math.inf:
            raise ScenarioError(
                f"reference constant at linear gains {gt:g} and {gr:g}, "
                f"{panel.dx:g} x {panel.dy:g} m: {OUT_OF_RANGE}",
                ("budget.gt", "budget.gr", "panels[0].panel.dx", "panels[0].panel.dy"),
            )


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

    def fields(self, **values) -> dict:
        """Each value with the path of its key under this section, as
        _build takes them."""
        return {key: (value, f"{self.path}.{key}") for key, value in values.items()}

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


def _build(record, fields: dict):
    """record built from fields, which map record paths to (value, path of
    the key as written): its arguments are the fields named by a bare name,
    and the others are paths below them (``budget.gt``, ``panels[1].panel``)."""
    with renamed(lambda field: _written(field, fields)):
        return record(**{k: v for k, (v, _) in fields.items() if k.isidentifier()})


def _written(field: str, fields: dict) -> str:
    """The record path field (``user.z``) as written: the written path of
    its longest prefix in fields, then the rest (``scenario.user.z``)."""
    for key in sorted(fields, key=len, reverse=True):  # the longest prefix first
        if field == key or field.startswith((f"{key}.", f"{key}[")):
            return fields[key][1] + field[len(key) :]
    return field


def _point(section: _Section) -> Point3:
    section.reject_unknown({"x", "y", "z"})
    return Point3(section.number("x"), section.number("y"), section.number("z"))


def _panel(section: _Section) -> tuple[RisPanel, str]:
    """The panel the section describes, and the section's path."""
    section.reject_unknown({"center", "mx", "my", "dx", "dy"})
    center = _point(section.child("center"))
    mx, my = section.require("mx"), section.require("my")  # RisPanel checks them
    dx, dy = section.number("dx"), section.number("dy")
    return _build(RisPanel, section.fields(center=center, mx=mx, my=my, dx=dx, dy=dy)), section.path


def _doppler(section: _Section, default_fc: float) -> float:
    """The aging correlation J0(2 pi f_d T_s) of a Doppler triple; a triple
    the model cannot take raises ScenarioError naming the section."""
    section.reject_unknown({"fc_hz", "v_mps", "ts_s"})
    fc = _as_number(section.optional("fc_hz", default_fc), f"{section.path}.fc_hz")
    try:
        return outdated_correlation(fc, section.number("v_mps"), section.number("ts_s"))
    except (ValueError, NegativeCorrelation) as exc:
        raise ScenarioError(str(exc), (section.path,)) from None


def _field(section: _Section, keys: tuple[str, ...], n: Optional[int] = None, fc_hz=None):
    """The one field spelled by whichever of keys is present, in linear
    units, and the path of the key as written: a (number, path) pair, or
    given n panels a list of n pairs (a scalar is repeated for every
    panel, path[i] naming it for panel i).  A key ending in _db or _dbm
    is converted from dB or dBm, and a doppler key's triple resolves to
    its correlation at default carrier fc_hz."""
    key, value = section.one_of(*keys)
    path = f"{section.path}.{key}"
    if key.startswith("doppler"):
        # one triple for every panel
        numbers = [(_doppler(section.child(key), fc_hz), path)] * (n or 1)
    else:
        if n is None:
            written = [(value, path)]
        else:
            values = value if isinstance(value, list) else [value] * n
            if len(values) != n:
                raise ScenarioError(f"expected {n} per-panel values, got {len(values)}", (path,))
            written = [(v, f"{path}[{i}]") for i, v in enumerate(values)]
        numbers = [(_as_number(v, where), where) for v, where in written]
    convert = (
        dbm_to_watts if key.endswith("_dbm") else db_to_linear if key.endswith("_db") else None
    )
    out = []
    for number, where in numbers:
        try:
            out.append((convert(number) if convert else number, where))
        except OverflowError:
            raise ScenarioError(f"{number!r} is out of float range in linear units", (where,)) from None
    return out[0] if n is None else out


def parse_scenario(data: dict) -> Scenario:
    """Build the Scenario a raw mapping describes; a failure names the key
    as written."""
    return _build(Scenario, _fields(data))


def _fields(data: dict) -> dict:
    """The fields of the Scenario data describes, as _build takes them."""
    root = _Section(data, "scenario")
    root.reject_unknown({"fc_hz", "mode", "bs", "user", "deployment", "channel", "budget"})

    fc_hz = root.number("fc_hz")
    bs = _point(root.child("bs"))
    user = _point(root.child("user"))

    deployment = root.child("deployment")
    kind = deployment.require("kind")
    _build(_kind, deployment.fields(kind=kind))
    if kind == "centralized":
        deployment.reject_unknown({"kind", "panel", "fixed_total_elements"})
        panels = [_panel(deployment.child("panel"))]
    else:
        deployment.reject_unknown({"kind", "panels", "fixed_total_elements"})
        raw_panels = deployment.require("panels")
        if not isinstance(raw_panels, list):
            raise ScenarioError("expected a non-empty list", (f"{deployment.path}.panels",))
        panels = [
            _panel(_Section(p, f"{deployment.path}.panels[{i}]"))
            for i, p in enumerate(raw_panels)
        ]

    channel = root.child("channel")
    channel.reject_unknown(
        {"k0", "k0_db", "k1", "k1_db", "k2", "k2_db", "rho0", "doppler0", "rho", "doppler"}
    )
    n = len(panels)
    k0 = _field(channel, ("k0", "k0_db"))
    k1s = _field(channel, ("k1", "k1_db"), n)
    k2s = _field(channel, ("k2", "k2_db"), n)
    rho0 = _field(channel, ("rho0", "doppler0"), fc_hz=fc_hz)
    rhos = _field(channel, ("rho", "doppler"), n, fc_hz)
    setups = tuple(
        _build(PanelSetup, {"panel": panel, "k1": k1, "k2": k2, "rho": rho})
        for panel, k1, k2, rho in zip(panels, k1s, k2s, rhos)
    )

    budget = root.child("budget")
    budget.reject_unknown(
        {"p_dbm", "p_w", "noise_dbm", "noise_w", "gt", "gt_db", "gr", "gr_db", "eta_db", "xi"}
    )
    link_budget = {
        "tx_power": _field(budget, ("p_dbm", "p_w")),
        "noise_power": _field(budget, ("noise_dbm", "noise_w")),
        "gt": _field(budget, ("gt", "gt_db")),
        "gr": _field(budget, ("gr", "gr_db")),
        **budget.fields(eta_db=budget.number("eta_db"), xi=budget.number("xi")),
    }
    total = deployment.optional("fixed_total_elements")
    return {
        **root.fields(bs=bs, user=user, fc_hz=fc_hz, mode=root.optional("mode", "auto")),
        **deployment.fields(kind=kind, panels=setups, fixed_total_elements=total),
        **{f"panels[{i}].panel": panel for i, panel in enumerate(panels)},
        "k0": k0,
        "rho0": rho0,
        "budget": (_build(LinkBudget, link_budget), budget.path),
        **{f"budget.{name}": pair for name, pair in link_budget.items()},
    }


# libyaml's parser when PyYAML was built with it (about 7x faster), else
# the pure-Python one; both build the same data
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path: str) -> Scenario:
    return parse_scenario(_read(path))


@contextlib.contextmanager
def written_keys(path: str):
    """A ValidationFailure raised in the block, where the file's Scenario
    runs, names the keys the YAML file at path wrote (``scenario.budget.p_dbm``)
    in place of record paths (``budget.tx_power``); only then is it read again."""
    try:
        yield
    except ValidationFailure:
        fields = _fields(_read(path))
        with renamed(lambda field: _written(field, fields)):
            raise


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError as exc:
        raise ScenarioError(f"file not found: {path}", ("scenario",)) from exc
    except OSError as exc:
        reason = exc.strerror or exc
        raise ScenarioError(f"file cannot be read: {path}: {reason}", ("scenario",)) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"file is not UTF-8 text: {path}: {exc}", ("scenario",)) from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"file is not valid YAML: {exc}", ("scenario",)) from exc


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical (all-linear) mapping; parse(scenario_to_dict(s)) == s.
    Point3 and RisPanel list their fields in the schema's key order."""
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

"""The scenario registry: workloads as first-class, enumerable objects.

The paper's central claim is breadth — one compiler-driven simulator
covering many accelerator structures from a single EQueue IR — and the
related suites it compares against (Manticore, GSIM) are evaluated over
*collections* of designs, not two case studies.  This module makes that
breadth a first-class artifact: every workload is a registered
:class:`Scenario` that declares

* a **name** and a one-line summary,
* a frozen **config dataclass** (every field keyword-overridable from
  the CLI's ``--scenario name:key=val,...`` syntax, with values coerced
  to the field's type),
* a ``build(cfg) -> ModuleOp`` hook producing the verified EQueue
  module,
* deterministic **input generation** from ``(cfg, seed)``,
* a **reference-stats oracle** — ``check(cfg, result, seed)`` asserts
  the simulation's observables (functional output, closed-form cycle
  counts, exact traffic totals) against ground truth and returns the
  dict of stats it verified,
* a default **sweep grid** of config axes for design-space exploration.

Everything that enumerates workloads — ``equeue-sim --list-scenarios``,
the sweep runner, the layered benchmark, the differential test suites —
iterates this registry instead of hard-coding generator imports, so
adding a workload is one module plus one :func:`register_scenario` call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..ir import verify
from ..ir.module import ModuleOp


class ScenarioError(Exception):
    """Raised for unknown scenarios or invalid configuration overrides."""


_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _coerce(name: str, field_name: str, default, text: str):
    """Coerce a ``key=val`` override string to the config field's type.

    The field's *default value* carries the type (every scenario config
    field has a concrete default — that is what makes the whole config
    overridable from the command line).  ``bool`` is checked before
    ``int`` because ``bool`` is an ``int`` subclass.
    """
    if isinstance(default, bool):
        lowered = text.strip().lower()
        if lowered in _TRUE_WORDS:
            return True
        if lowered in _FALSE_WORDS:
            return False
        raise ScenarioError(
            f"scenario {name!r}: {field_name}={text!r} is not a boolean "
            "(use true/false)"
        )
    if isinstance(default, int):
        try:
            return int(text, 0)
        except ValueError:
            raise ScenarioError(
                f"scenario {name!r}: {field_name}={text!r} is not an integer"
            ) from None
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            raise ScenarioError(
                f"scenario {name!r}: {field_name}={text!r} is not a number"
            ) from None
    return text


@dataclass(frozen=True)
class Scenario:
    """One registered workload.

    ``builder`` maps a config to an (unverified) :class:`ModuleOp`;
    :meth:`build` verifies it.  ``inputs`` maps ``(cfg, seed)`` to the
    engine's named-buffer input dict (or ``None`` for self-contained
    programs).  ``oracle`` maps ``(cfg, result, seed)`` to a dict of
    reference stats it checked, raising ``AssertionError`` on any
    mismatch.  ``grid`` names the default sweep axes (config field ->
    values).  ``structural_key`` maps a config to the key under which
    built modules/plans may be shared across simulations (configs with
    equal keys must build identical modules); it defaults to the config
    itself.
    """

    name: str
    summary: str
    config_cls: type
    builder: Callable[[object], ModuleOp]
    inputs: Optional[Callable[[object, int], Optional[Dict]]] = None
    oracle: Optional[Callable[[object, object, int], Dict]] = None
    grid: Tuple[Tuple[str, Tuple], ...] = ()
    structural_key: Optional[Callable[[object], Tuple]] = None

    # -- configuration -------------------------------------------------

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(self.config_cls))

    def configure(self, **overrides):
        """A config instance with keyword overrides applied."""
        valid = self.field_names()
        for key in overrides:
            if key not in valid:
                raise ScenarioError(
                    f"scenario {self.name!r} has no config key {key!r}; "
                    f"valid keys: {', '.join(valid)}"
                )
        try:
            return self.config_cls(**overrides)
        except (ValueError, TypeError) as error:
            raise ScenarioError(
                f"scenario {self.name!r}: invalid configuration: {error}"
            ) from None

    def parse_config(self, text: str):
        """Parse ``"key=val,key=val,..."`` into a config instance.

        Values are coerced to each field's declared type (int/bool/str,
        from the field's default); unknown keys and malformed values
        raise :class:`ScenarioError` naming the valid keys.
        """
        overrides: Dict[str, object] = {}
        defaults = {f.name: f.default for f in fields(self.config_cls)}
        for part in filter(None, (p.strip() for p in text.split(","))):
            key, separator, value = part.partition("=")
            key = key.strip()
            if not separator or not key:
                raise ScenarioError(
                    f"scenario {self.name!r}: malformed override {part!r} "
                    "(expected key=value)"
                )
            if key not in defaults:
                raise ScenarioError(
                    f"scenario {self.name!r} has no config key {key!r}; "
                    f"valid keys: {', '.join(defaults)}"
                )
            overrides[key] = _coerce(
                self.name, key, defaults[key], value.strip()
            )
        return self.configure(**overrides)

    # -- the build/run hooks -------------------------------------------

    def build(self, cfg) -> ModuleOp:
        """Build and verify the scenario's EQueue module."""
        module = self.builder(cfg)
        verify(module)
        return module

    def make_inputs(self, cfg, seed: int = 0) -> Optional[Dict]:
        """Deterministic named-buffer inputs for a config and seed."""
        if self.inputs is None:
            return None
        return self.inputs(cfg, seed)

    def check(self, cfg, result, seed: int = 0) -> Dict:
        """Run the reference-stats oracle; returns the checked stats."""
        if self.oracle is None:
            return {}
        return self.oracle(cfg, result, seed)

    def signature(self, cfg) -> Tuple:
        """The structure key under which built programs may be shared."""
        if self.structural_key is not None:
            return (self.name,) + tuple(self.structural_key(cfg))
        return (self.name, cfg)

    # -- sweep grids ---------------------------------------------------

    def default_grid(self) -> Dict[str, Tuple]:
        """The declared sweep axes (config field -> candidate values)."""
        return {axis: tuple(values) for axis, values in self.grid}

    def grid_points(
        self,
        axes: Optional[Mapping[str, Sequence]] = None,
        **base,
    ) -> List[object]:
        """Expand sweep axes into config instances.

        ``axes`` defaults to the scenario's declared grid; ``base``
        fixes non-swept fields.  Combinations the config rejects (e.g.
        a filter larger than its image) are skipped, mirroring
        :meth:`repro.analysis.SweepSpec.points`.
        """
        grid = self.default_grid() if axes is None else dict(axes)
        names = list(grid)
        points: List[object] = []
        for combo in itertools.product(*(grid[name] for name in names)):
            overrides = dict(base)
            overrides.update(zip(names, combo))
            try:
                points.append(self.configure(**overrides))
            except ScenarioError:
                continue
        return points


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Register a scenario under its name (the extension point)."""
    if not replace and scenario.name in _REGISTRY:
        raise ScenarioError(
            f"scenario {scenario.name!r} is already registered"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name; unknown names list the valid ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; valid scenarios: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def scenario_names() -> Tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> Tuple[Scenario, ...]:
    """Every registered scenario, sorted by name."""
    return tuple(_REGISTRY[name] for name in scenario_names())


def parse_scenario_spec(spec: str) -> Tuple[Scenario, object]:
    """Parse ``"name"`` or ``"name:key=val,..."`` into (scenario, cfg)."""
    name, separator, overrides = spec.partition(":")
    scenario = get_scenario(name.strip())
    if separator and overrides.strip():
        return scenario, scenario.parse_config(overrides)
    return scenario, scenario.configure()

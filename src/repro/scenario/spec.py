"""Declarative, serializable sweep specifications.

A :class:`SweepSpec` describes a family of experiment cells — the
cross-product of axes (with optional zipped axis groups), fixed base
overrides, explicit extra cells, and declarative constraints — plus the
execution modes to simulate. It compiles deterministically to the list
of :class:`~repro.exec.job.SimJob` the execution service runs, and it
round-trips through plain dicts (:meth:`SweepSpec.to_dict` /
:meth:`SweepSpec.from_dict`), so whole sweeps can be saved, shared and
re-run without writing Python.

Axis semantics:

* ``axes`` is an ordered sequence of *groups*. A group with one field
  is an ordinary axis; a group with several fields is *zipped* — its
  value lists advance together (e.g. the ``(model, batch)`` workload
  pairs of the ablation figures). The first group is the outermost
  loop, the last the innermost.
* ``base`` supplies fixed overrides applied to every cell (fields not
  named anywhere take their :class:`ExperimentConfig` defaults).
* ``include`` appends explicit cells after the grid — override dicts
  that may also carry a per-cell ``modes`` list. Constraints do not
  filter include cells (they are explicit picks).
* ``constraints`` drop grid cells declaratively: each keeps only the
  cells satisfying ``field <op> value``, evaluated whenever its
  ``when`` equality conditions match (so "skip ``batch > 32`` on
  ``A100``" is ``field=batch_size, op=le, value=32,
  when={gpu: A100}``).

Every value is normalized to a plain JSON-compatible form at
construction (enums become their values, calibration dataclasses become
field dicts), so a spec is *always* serializable; compilation coerces
values back to the live types ``ExperimentConfig`` expects.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.exec.job import DEFAULT_MODES, SimJob
from repro.hw.calibration import ContentionCalibration
from repro.hw.datapath import Precision
from repro.sim.perturb import normalize_perturbations

#: Fields of ExperimentConfig a spec may set or sweep.
CONFIG_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig)
)

#: Comparison operators a constraint may use.
CONSTRAINT_OPS: Tuple[str, ...] = (
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "in",
    "not_in",
)

_MODE_VALUES: Tuple[str, ...] = tuple(m.value for m in ExecutionMode)


def _plain(value: Any) -> Any:
    """Normalize a field value to a JSON-compatible plain form."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"value {value!r} of type {type(value).__name__} is not serializable "
        f"in a SweepSpec"
    )


def _check_field(name: str, context: str) -> None:
    if name not in CONFIG_FIELDS:
        raise ConfigurationError(
            f"unknown experiment field {name!r} in {context} "
            f"(known: {', '.join(CONFIG_FIELDS)})"
        )


#: Float-typed config fields (derived from the dataclass annotations),
#: coerced so an integer-valued spec entry (``power_limit_w: 400``)
#: produces the same job cache key as the float the registered
#: scenarios use (400.0).
_FLOAT_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if str(f.type) in ("float", "Optional[float]")
)


def _as_float(value: Any) -> Any:
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def coerce_field(name: str, value: Any) -> Any:
    """Live value for one ``ExperimentConfig`` field from its plain form."""
    if value is None:
        return None
    if name in _FLOAT_FIELDS:
        return _as_float(value)
    if name == "precision" and isinstance(value, str):
        try:
            return Precision(value)
        except ValueError:
            raise ConfigurationError(
                f"unknown precision {value!r} "
                f"(known: {', '.join(p.value for p in Precision)})"
            ) from None
    if name == "calibration" and isinstance(value, Mapping):
        try:
            # Every calibration coefficient is a float; normalize ints
            # so hand-written overrides hash like programmatic ones.
            return ContentionCalibration(
                **{k: _as_float(v) for k, v in value.items()}
            )
        except TypeError as exc:
            raise ConfigurationError(
                f"bad calibration override {dict(value)!r}: {exc}"
            ) from None
    if name == "perturbations":
        # JSON/YAML axes carry perturbations as lists of mappings;
        # ExperimentConfig would normalize anyway, but validating here
        # fails at spec-load time with the field name in hand.
        return normalize_perturbations(value)
    return value


#: Baseline for the fields ExperimentConfig itself does not default.
DEFAULT_CELL: Mapping[str, Any] = {
    "gpu": "H100",
    "model": "gpt3-xl",
    "batch_size": 8,
}


def config_from_overrides(overrides: Mapping[str, Any]) -> ExperimentConfig:
    """Build the cell config, defaulting every field not overridden."""
    kwargs = dict(DEFAULT_CELL)
    kwargs.update(overrides)
    return ExperimentConfig(
        **{name: coerce_field(name, value) for name, value in kwargs.items()}
    )


def _coerce_modes(modes: Sequence[Any], context: str) -> Tuple[str, ...]:
    out: List[str] = []
    for mode in modes:
        value = mode.value if isinstance(mode, ExecutionMode) else mode
        if value not in _MODE_VALUES:
            raise ConfigurationError(
                f"unknown mode {value!r} in {context} "
                f"(known: {', '.join(_MODE_VALUES)})"
            )
        if value not in out:  # dedup: repeated modes would double
            out.append(value)  # simulation work and fork the cache key
    # The Eq. 1-5 metrics every cell computes compare these two runs;
    # without both, every job would fail downstream as a bogus skip.
    required = {
        ExecutionMode.OVERLAPPED.value,
        ExecutionMode.SEQUENTIAL.value,
    }
    if not required.issubset(out):
        raise ConfigurationError(
            f"{context} must include both 'overlapped' and 'sequential' "
            f"(got {out!r}); only 'ideal' is optional"
        )
    # Canonical enum order: mode order has no semantic meaning, but it
    # is digested into the job cache key — normalizing lets
    # 'sequential,overlapped' share cells with every other spelling.
    return tuple(value for value in _MODE_VALUES if value in out)


@dataclass(frozen=True)
class Constraint:
    """Keep only the grid cells where ``field <op> value`` holds.

    ``when`` narrows the constraint to cells matching its equality
    conditions; cells outside the ``when`` scope pass unfiltered.
    """

    field: str
    op: str
    value: Any
    when: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_field(self.field, "constraint")
        if self.op not in CONSTRAINT_OPS:
            raise ConfigurationError(
                f"unknown constraint op {self.op!r} "
                f"(known: {', '.join(CONSTRAINT_OPS)})"
            )
        for name in self.when:
            _check_field(name, "constraint 'when' clause")
        if self.op in ("in", "not_in") and not isinstance(
            self.value, (list, tuple)
        ):
            raise ConfigurationError(
                f"constraint op {self.op!r} needs a list of values, "
                f"got {self.value!r}"
            )
        object.__setattr__(self, "value", _plain(self.value))
        object.__setattr__(
            self, "when", {k: _plain(v) for k, v in self.when.items()}
        )

    def allows(self, cell: Mapping[str, Any]) -> bool:
        """Whether a fully-resolved cell (field -> plain value) passes."""
        for name, expected in self.when.items():
            if cell.get(name) != expected:
                return True  # out of scope: constraint does not apply
        actual = cell.get(self.field)
        if self.op == "eq":
            return actual == self.value
        if self.op == "ne":
            return actual != self.value
        if self.op == "in":
            return actual in self.value
        if self.op == "not_in":
            return actual not in self.value
        # Ordering comparisons: an unset (None) value never satisfies.
        if actual is None:
            return False
        try:
            if self.op == "lt":
                return actual < self.value
            if self.op == "le":
                return actual <= self.value
            if self.op == "gt":
                return actual > self.value
            return actual >= self.value  # ge
        except TypeError:
            raise ConfigurationError(
                f"constraint {self.field} {self.op} {self.value!r} cannot "
                f"compare with cell value {actual!r} (mismatched types — "
                f"is the spec value quoted?)"
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "field": self.field,
            "op": self.op,
            "value": self.value,
            "when": dict(self.when),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Constraint":
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"a constraint must be a mapping, got {payload!r}"
            )
        unknown = set(payload) - {"field", "op", "value", "when"}
        if unknown:
            raise ConfigurationError(
                f"unknown constraint keys: {', '.join(sorted(unknown))}"
            )
        for required in ("field", "op", "value"):
            if required not in payload:
                raise ConfigurationError(
                    f"constraint is missing required key {required!r}"
                )
        return cls(
            field=payload["field"],
            op=payload["op"],
            value=payload["value"],
            when=dict(payload.get("when", {})),
        )


#: Default values of every ExperimentConfig field, in plain form —
#: what constraints see for fields a cell does not override.
_CONFIG_DEFAULTS: Dict[str, Any] = {
    f.name: _plain(f.default)
    for f in dataclasses.fields(ExperimentConfig)
    if f.default is not dataclasses.MISSING
}
_CONFIG_DEFAULTS.update(DEFAULT_CELL)

_SPEC_KEYS = (
    "name",
    "description",
    "base",
    "axes",
    "include",
    "constraints",
    "modes",
)


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: axes x base x constraints -> SimJobs."""

    name: str = ""
    description: str = ""
    base: Mapping[str, Any] = field(default_factory=dict)  # repro: allow[C201] identity is spec_hash() over normalized plain forms, never hash(spec)
    axes: Sequence[Mapping[str, Sequence[Any]]] = ()
    include: Sequence[Mapping[str, Any]] = ()
    constraints: Sequence[Constraint] = ()
    modes: Sequence[Any] = tuple(m.value for m in DEFAULT_MODES)

    def __post_init__(self) -> None:
        # --- base ---
        base = {}
        for name, value in dict(self.base).items():
            _check_field(name, "spec base")
            base[name] = _plain(value)
        object.__setattr__(self, "base", base)
        # --- axes ---
        if isinstance(self.axes, Mapping):
            # Convenience: a single mapping means one-field groups in
            # insertion order.
            groups: List[Mapping[str, Sequence[Any]]] = [
                {name: values} for name, values in self.axes.items()
            ]
        else:
            groups = list(self.axes)
        plain_groups: List[Dict[str, List[Any]]] = []
        swept: set = set()
        for group in groups:
            if not isinstance(group, Mapping) or not group:
                raise ConfigurationError(
                    f"each axes entry must be a non-empty mapping of "
                    f"field -> values, got {group!r}"
                )
            plain_group: Dict[str, List[Any]] = {}
            length: Optional[int] = None
            for name, values in group.items():
                _check_field(name, "spec axes")
                if name in swept:
                    raise ConfigurationError(
                        f"axis field {name!r} appears in more than one "
                        f"axes group; later groups would silently "
                        f"overwrite the earlier sweep"
                    )
                swept.add(name)
                if isinstance(values, (str, bytes)) or not isinstance(
                    values, Sequence
                ):
                    raise ConfigurationError(
                        f"axis {name!r} needs a list of values, "
                        f"got {values!r}"
                    )
                if not values:
                    raise ConfigurationError(
                        f"axis {name!r} has no values"
                    )
                if length is None:
                    length = len(values)
                elif len(values) != length:
                    raise ConfigurationError(
                        f"zipped axes {sorted(group)} have mismatched "
                        f"lengths ({length} vs {len(values)} for {name!r})"
                    )
                plain_group[name] = [_plain(v) for v in values]
            plain_groups.append(plain_group)
        object.__setattr__(self, "axes", tuple(plain_groups))
        # --- include ---
        cells: List[Dict[str, Any]] = []
        for cell in self.include:
            if not isinstance(cell, Mapping):
                raise ConfigurationError(
                    f"each include entry must be a mapping, got {cell!r}"
                )
            plain_cell: Dict[str, Any] = {}
            for name, value in cell.items():
                if name == "modes":
                    plain_cell["modes"] = list(
                        _coerce_modes(value, "include cell")
                    )
                    continue
                _check_field(name, "include cell")
                plain_cell[name] = _plain(value)
            cells.append(plain_cell)
        object.__setattr__(self, "include", tuple(cells))
        # --- constraints ---
        parsed: List[Constraint] = []
        for constraint in self.constraints:
            if isinstance(constraint, Constraint):
                parsed.append(constraint)
            else:
                parsed.append(Constraint.from_dict(constraint))
        object.__setattr__(self, "constraints", tuple(parsed))
        # --- modes ---
        object.__setattr__(
            self, "modes", _coerce_modes(self.modes, "spec modes")
        )

    # ------------------------------------------------------------------
    # Overrides
    # ------------------------------------------------------------------

    def with_base_overrides(self, overrides: Mapping[str, Any]) -> "SweepSpec":
        """Copy with ``overrides`` folded into the base cell.

        This is what the CLI's ``--set FIELD=VALUE`` flags compile to:
        every cell of the sweep gets the override unless an axis or an
        include cell sweeps that same field — in which case the axis
        value would silently win, so the override is rejected instead
        of ignored.
        """
        if not overrides:
            return self
        for name in overrides:
            _check_field(name, "--set override")
            for group in self.axes:
                if name in group:
                    raise ConfigurationError(
                        f"field {name!r} is swept by an axis of "
                        f"{self.name or 'this spec'}; a --set override "
                        f"would be silently ignored (pin it with a "
                        f"constraint instead)"
                    )
            for cell in self.include:
                if name in cell:
                    raise ConfigurationError(
                        f"field {name!r} is fixed by an include cell of "
                        f"{self.name or 'this spec'}; a --set override "
                        f"would be silently ignored there"
                    )
        base = dict(self.base)
        base.update(overrides)
        return dataclasses.replace(self, base=base)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def cells(self) -> List[Dict[str, Any]]:
        """Resolved override dicts, grid cells first, then includes.

        Each dict maps field name -> plain value and, for include
        cells, may carry a ``modes`` key. Deterministic: the first axes
        group is the outermost loop.
        """
        steps_per_group: List[List[Dict[str, Any]]] = []
        for group in self.axes:
            names = list(group)
            length = len(group[names[0]])
            steps_per_group.append(
                [
                    {name: group[name][i] for name in names}
                    for i in range(length)
                ]
            )
        out: List[Dict[str, Any]] = []
        if self.axes or not self.include:
            # No axes and no includes still means one (base-only) cell;
            # an include-only spec contributes no implicit grid cell.
            for combo in itertools.product(*steps_per_group):
                overrides = dict(self.base)
                for step in combo:
                    overrides.update(step)
                resolved = dict(_CONFIG_DEFAULTS)
                resolved.update(overrides)
                if all(c.allows(resolved) for c in self.constraints):
                    out.append(overrides)
        for cell in self.include:
            overrides = dict(self.base)
            overrides.update(cell)
            out.append(overrides)
        return out

    def compile(self) -> List[SimJob]:
        """The deterministic job list this spec describes."""
        jobs: List[SimJob] = []
        default_modes = tuple(ExecutionMode(m) for m in self.modes)
        for overrides in self.cells():
            cell_modes = default_modes
            if "modes" in overrides:
                cell_modes = tuple(
                    ExecutionMode(m) for m in overrides.pop("modes")
                )
            jobs.append(
                SimJob(
                    config=config_from_overrides(overrides),
                    modes=cell_modes,
                )
            )
        return jobs

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; ``from_dict`` round-trips it exactly."""
        return {
            "name": self.name,
            "description": self.description,
            "base": dict(self.base),
            "axes": [dict(group) for group in self.axes],
            "include": [dict(cell) for cell in self.include],
            "constraints": [c.to_dict() for c in self.constraints],
            "modes": list(self.modes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a spec, rejecting unknown top-level keys."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"a sweep spec must be a mapping, got {payload!r}"
            )
        unknown = set(payload) - set(_SPEC_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec keys: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(_SPEC_KEYS)})"
            )
        for key in ("name", "description"):
            value = payload.get(key)
            if value is not None and not isinstance(value, str):
                raise ConfigurationError(
                    f"sweep spec {key!r} must be a string, "
                    f"got {value!r}"
                )
        # A bare key in a YAML file ('base:' with every entry commented
        # out) parses to None; treat it like the key being absent. An
        # *explicit* 'modes: []' is not defaulted — it reaches
        # _coerce_modes and fails loudly like any other bad mode list.
        modes = payload.get("modes")
        if modes is None:
            modes = tuple(m.value for m in DEFAULT_MODES)
        return cls(
            name=payload.get("name") or "",
            description=payload.get("description") or "",
            base=dict(payload.get("base") or {}),
            axes=payload.get("axes") or (),
            include=payload.get("include") or (),
            constraints=payload.get("constraints") or (),
            modes=modes,
        )

    def spec_hash(self) -> str:
        """Deterministic digest of the spec's canonical serialized form."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

"""The named scenario registry.

Every paper artifact (figures 1 and 4-11, the paper's claims, the
sensitivity tornado, the crossover search) registers itself here as a
:class:`Scenario`: a name, a spec builder describing the cells it
simulates, the row generator, and the text renderer. The CLI's
``scenario list`` / ``scenario show`` / ``scenario run`` subcommands
and the figure command resolve scenarios through this registry.

Artifacts register at import time via :func:`register_scenario`, used
either as a decorator on the generate function::

    @register_scenario("fig9", description="...", spec=scenario_spec)
    def generate(quick=True): ...

or as a plain call once generate/render exist::

    register_scenario("fig4", description="...", spec=grid_spec,
                      generate=generate, render=render)

:func:`load_catalog` imports every registering module, so listings are
complete regardless of what the process has imported so far.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError, UnknownSpecError
from repro.scenario.spec import SweepSpec


@dataclass(frozen=True)
class Scenario:
    """One named, runnable experiment family."""

    name: str
    description: str
    generate: Callable[..., Any]
    #: Builds the spec of cells to (pre)simulate; ``None`` for
    #: artifacts that do not run through the job service (fig1's
    #: profiler cells, fig7's single trace, fig8's microbenchmark).
    build_spec: Optional[Callable[..., SweepSpec]] = None
    render: Optional[Callable[[Any], str]] = None

    def spec(self, quick: bool = True) -> Optional[SweepSpec]:
        """The spec for one fidelity, or ``None`` when spec-less."""
        if self.build_spec is None:
            return None
        return self.build_spec(quick=quick)


_REGISTRY: Dict[str, Scenario] = {}
_catalog_loaded = False


def register_scenario(
    name: str,
    description: str = "",
    spec: Optional[Callable[..., SweepSpec]] = None,
    generate: Optional[Callable[..., Any]] = None,
    render: Optional[Callable[[Any], str]] = None,
):
    """Register a scenario; decorator form when ``generate`` is omitted."""

    def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.generate is not fn:
            # A silent overwrite would let a copy-pasted registration
            # mask a real paper artifact.
            raise ConfigurationError(
                f"scenario {name!r} is already registered"
            )
        _REGISTRY[name] = Scenario(
            name=name,
            description=description,
            generate=fn,
            build_spec=spec,
            render=render,
        )
        return fn

    if generate is not None:
        return _register(generate)
    return _register


def load_catalog() -> None:
    """Import every module that registers a paper-artifact scenario."""
    global _catalog_loaded
    if _catalog_loaded:
        return
    # Function-level import: the catalog pulls in the harness and
    # analysis layers, which sit above this package.
    import repro.scenario.catalog  # noqa: F401

    _catalog_loaded = True


def _natural_key(name: str) -> List[object]:
    return [
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", name)
    ]


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by name."""
    load_catalog()
    scenario = _REGISTRY.get(name)
    if scenario is None:
        raise UnknownSpecError("scenario", name, known=tuple(_REGISTRY))
    return scenario


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, naturally sorted by name."""
    load_catalog()
    return [
        _REGISTRY[name] for name in sorted(_REGISTRY, key=_natural_key)
    ]

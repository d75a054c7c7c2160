"""The named scenario registry.

Every paper artifact (figures 1 and 4-11, the paper's claims, the
sensitivity tornado, the crossover search) registers itself here as a
:class:`Scenario`: a name, a spec builder describing the cells it
simulates, a function of those cells, and the text renderer. The
scenario runner resolves a spec's cells once and hands them, in
compile order, to the scenario's ``generate(cells)``, which only
shapes them into rows. The spec-less artifacts (fig1, fig7, fig8 and
the claims) produce their rows themselves with ``generate(quick=...)``.
The CLI's ``scenario list`` / ``scenario show`` / ``scenario run``
subcommands and the figure command resolve scenarios through this
registry.

Artifacts register at import time, once generate/render exist::

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
    #: ``generate(cells)`` with the resolved cells of the spec for a
    #: spec-backed scenario; ``generate(quick=...)`` for a spec-less one.
    generate: Callable[..., Any]
    #: Builds the spec of cells to simulate; ``None`` for artifacts
    #: that do not run through the job service (fig1's profiler cells,
    #: fig7's single trace, fig8's microbenchmark, the claims).
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
    generate: Callable[..., Any],
    description: str = "",
    spec: Optional[Callable[..., SweepSpec]] = None,
    render: Optional[Callable[[Any], str]] = None,
) -> None:
    """Register a scenario under ``name``."""
    existing = _REGISTRY.get(name)
    if existing is not None and existing.generate is not generate:
        # A silent overwrite would let a copy-pasted registration mask
        # a real paper artifact.
        raise ConfigurationError(f"scenario {name!r} is already registered")
    _REGISTRY[name] = Scenario(
        name=name,
        description=description,
        generate=generate,
        build_spec=spec,
        render=render,
    )


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

"""Declarative campaign specifications.

A campaign is one experiment swept over a parameter space, written as a
TOML or JSON document::

    name = "cw-sweep"                  # optional; defaults to file stem
    experiment = "table2"
    jobs = 4                           # optional worker count

    [params]                           # fixed overrides for every task
    slots_per_point = 40000

    [grid]                             # cartesian-product axes
    seed = [1, 2, 3]

    [zip]                              # equal-length zipped axes
    n_points = [10, 20]

    [seeds]                            # optional per-task seed policy
    parameter = "seed"
    base = 7
    policy = "spawn"                   # fixed | sequential | spawn

Expansion is deterministic: grid axes iterate in declaration order
(cartesian product, first axis slowest), zipped rows vary fastest, and
the seed policy is a pure function of the base seed and task index - so
the same spec always expands to the same task list with the same
content digests, which is what makes resume-by-store-membership exact.

``jobs`` is a speed knob: it never enters the task digests, so
changing it never invalidates cached results.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import CampaignError
from repro.experiments.registry import get_experiment
from repro.store.digest import compute_digest

__all__ = [
    "SEED_POLICIES",
    "CampaignSpec",
    "CampaignTask",
    "expand_tasks",
    "load_spec",
    "spec_from_dict",
]

SEED_POLICIES = ("fixed", "sequential", "spawn")


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign specification (see module docstring)."""

    name: str
    experiment_id: str
    base_params: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    zip_axes: Dict[str, List[Any]] = field(default_factory=dict)
    seed_parameter: Optional[str] = None
    seed_base: int = 0
    seed_policy: str = "spawn"
    jobs: Optional[int] = None

    @property
    def n_tasks(self) -> int:
        count = 1
        for values in self.grid.values():
            count *= len(values)
        if self.zip_axes:
            count *= len(next(iter(self.zip_axes.values())))
        return count


@dataclass(frozen=True)
class CampaignTask:
    """One expanded unit of work, addressed by its content digest."""

    index: int
    experiment_id: str
    params: Dict[str, Any]
    digest: str


def _require_table(value: Any, name: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise CampaignError(f"campaign {name!r} must be a table/object")
    return dict(value)


def spec_from_dict(
    data: Mapping[str, Any], *, name: Optional[str] = None
) -> CampaignSpec:
    """Validate a raw spec document into a :class:`CampaignSpec`."""
    if not isinstance(data, Mapping):
        raise CampaignError("campaign spec must be a table/object at top level")
    unknown = set(data) - {
        "name", "experiment", "jobs", "params", "grid", "zip", "seeds",
    }
    if unknown:
        raise CampaignError(
            f"unknown campaign spec keys: {sorted(unknown)!r}"
        )
    experiment_id = data.get("experiment")
    if not isinstance(experiment_id, str) or not experiment_id:
        raise CampaignError("campaign spec needs an 'experiment' id string")
    get_experiment(experiment_id)  # unknown ids raise ParameterError here

    base_params = _require_table(data.get("params"), "params")
    grid = _require_table(data.get("grid"), "grid")
    zip_axes = _require_table(data.get("zip"), "zip")

    for axis_table, kind in ((grid, "grid"), (zip_axes, "zip")):
        for axis, values in axis_table.items():
            if not isinstance(values, list) or not values:
                raise CampaignError(
                    f"{kind} axis {axis!r} must be a non-empty list"
                )
    zip_lengths = {len(values) for values in zip_axes.values()}
    if len(zip_lengths) > 1:
        raise CampaignError(
            "zip axes must all have the same length, got "
            f"{sorted(zip_lengths)!r}"
        )
    overlapping = (set(base_params) & set(grid) | set(base_params) & set(zip_axes)
                   | set(grid) & set(zip_axes))
    if overlapping:
        raise CampaignError(
            f"parameters defined in more than one section: {sorted(overlapping)!r}"
        )

    seeds = _require_table(data.get("seeds"), "seeds")
    seed_parameter: Optional[str] = None
    seed_base = 0
    seed_policy = "spawn"
    if seeds:
        unknown_seed = set(seeds) - {"parameter", "base", "policy"}
        if unknown_seed:
            raise CampaignError(
                f"unknown seeds keys: {sorted(unknown_seed)!r}"
            )
        seed_parameter = seeds.get("parameter", "seed")
        if not isinstance(seed_parameter, str) or not seed_parameter:
            raise CampaignError("seeds.parameter must be a parameter name")
        if seed_parameter in grid or seed_parameter in zip_axes:
            raise CampaignError(
                f"seeds.parameter {seed_parameter!r} also appears as a "
                "sweep axis; pick one mechanism"
            )
        seed_base = seeds.get("base", 0)
        if (
            not isinstance(seed_base, int)
            or isinstance(seed_base, bool)
            or seed_base < 0
        ):
            raise CampaignError("seeds.base must be an integer >= 0")
        seed_policy = seeds.get("policy", "spawn")
        if seed_policy not in SEED_POLICIES:
            raise CampaignError(
                f"seeds.policy must be one of {SEED_POLICIES}, "
                f"got {seed_policy!r}"
            )

    jobs = data.get("jobs")
    if jobs is not None and (
        not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0
    ):
        raise CampaignError(f"jobs must be an integer >= 0, got {jobs!r}")

    spec_name = data.get("name", name)
    if spec_name is None:
        spec_name = experiment_id
    if not isinstance(spec_name, str) or not spec_name:
        raise CampaignError("campaign name must be a non-empty string")

    return CampaignSpec(
        name=spec_name,
        experiment_id=experiment_id,
        base_params=base_params,
        grid=grid,
        zip_axes=zip_axes,
        seed_parameter=seed_parameter,
        seed_base=seed_base,
        seed_policy=seed_policy,
        jobs=jobs,
    )


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    source = Path(path)
    if not source.is_file():
        raise CampaignError(f"campaign spec not found: {source}")
    suffix = source.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(source.read_text())
        except json.JSONDecodeError as error:
            raise CampaignError(
                f"campaign spec {source} is not valid JSON: {error}"
            ) from error
    elif suffix == ".toml":
        if sys.version_info < (3, 11):  # pragma: no cover - py>=3.11 in CI 3.12
            raise CampaignError(
                "TOML campaign specs need Python >= 3.11 (tomllib); "
                "use a JSON spec on older interpreters"
            )
        import tomllib

        try:
            data = tomllib.loads(source.read_text())
        except tomllib.TOMLDecodeError as error:
            raise CampaignError(
                f"campaign spec {source} is not valid TOML: {error}"
            ) from error
    else:
        raise CampaignError(
            f"campaign spec must be .toml or .json, got {source.name!r}"
        )
    return spec_from_dict(data, name=source.stem)


def _task_seed(policy: str, base: int, index: int) -> int:
    """Deterministic per-task seed for one policy (pure in base+index)."""
    if policy == "fixed":
        return base
    if policy == "sequential":
        return base + index
    # "spawn": a SeedSequence child keyed by the task index - independent
    # streams with the same guarantee the parallel runner relies on.
    child = np.random.SeedSequence(base, spawn_key=(index,))
    return int(child.generate_state(1, np.uint64)[0])


def expand_tasks(spec: CampaignSpec) -> List[CampaignTask]:
    """Expand a spec into its deterministic, digest-addressed task list."""
    grid_axes = list(spec.grid)
    grid_product: List[Tuple[Any, ...]] = list(
        itertools.product(*(spec.grid[axis] for axis in grid_axes))
    )
    zip_rows: List[Dict[str, Any]]
    if spec.zip_axes:
        length = len(next(iter(spec.zip_axes.values())))
        zip_rows = [
            {axis: values[row] for axis, values in spec.zip_axes.items()}
            for row in range(length)
        ]
    else:
        zip_rows = [{}]

    tasks: List[CampaignTask] = []
    for combo in grid_product:
        for zipped in zip_rows:
            params = dict(spec.base_params)
            params.update(zip(grid_axes, combo))
            params.update(zipped)
            index = len(tasks)
            if spec.seed_parameter is not None:
                params[spec.seed_parameter] = _task_seed(
                    spec.seed_policy, spec.seed_base, index
                )
            tasks.append(
                CampaignTask(
                    index=index,
                    experiment_id=spec.experiment_id,
                    params=params,
                    digest=compute_digest(spec.experiment_id, params),
                )
            )
    return tasks

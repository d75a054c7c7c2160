"""repro: reproduction of "Characterizing Compute-Communication Overlap
in GPU-Accelerated Distributed Deep Learning" (ISPASS 2025).

A discrete-event multi-GPU training simulator with contention and power
models, plus the experiment harness regenerating every table and figure
of the paper. See README.md for a tour and DESIGN.md for the system
inventory.
"""

from repro.version import __version__
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    InfeasibleConfigError,
    PlanError,
    ReproError,
    ShardMergeError,
    SimulationError,
    UnknownSpecError,
)
from repro.hw import (
    ComputePath,
    Datapath,
    GpuSpec,
    NodeSpec,
    Precision,
    Vendor,
    get_gpu,
    list_gpus,
    make_node,
)
from repro.workloads import ModelSpec, TrainingShape, get_model, list_models
from repro.parallel import Strategy, build_plan
from repro.sim import SimConfig, SimulationResult, simulate
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.core.modes import ExecutionMode
from repro.exec import (
    ExecutionService,
    JobOutcome,
    ParallelExecutor,
    RemoteExecutor,
    ResultCache,
    SerialExecutor,
    ShardPlan,
    SimJob,
    default_service,
)
from repro.fleet import (
    FleetCoordinator,
    FleetWorker,
    SimTask,
    compile_fleet_plan,
    task_from_job,
)
from repro.scenario import (
    Constraint,
    Scenario,
    ScenarioResult,
    SweepSpec,
    get_scenario,
    list_scenarios,
    load_spec_file,
    merge_scenario,
    register_scenario,
    run_scenario,
    run_spec,
)

__all__ = [
    "ComputePath",
    "ConfigurationError",
    "Constraint",
    "Datapath",
    "DeadlockError",
    "ExecutionMode",
    "ExecutionService",
    "ExperimentConfig",
    "ExperimentResult",
    "FleetCoordinator",
    "FleetWorker",
    "GpuSpec",
    "InfeasibleConfigError",
    "JobOutcome",
    "ModelSpec",
    "NodeSpec",
    "ParallelExecutor",
    "PlanError",
    "Precision",
    "RemoteExecutor",
    "ReproError",
    "ResultCache",
    "Scenario",
    "ScenarioResult",
    "SerialExecutor",
    "ShardMergeError",
    "ShardPlan",
    "SimConfig",
    "SimJob",
    "SimTask",
    "SimulationError",
    "SimulationResult",
    "Strategy",
    "SweepSpec",
    "TrainingShape",
    "UnknownSpecError",
    "Vendor",
    "__version__",
    "build_plan",
    "compile_fleet_plan",
    "default_service",
    "get_gpu",
    "get_model",
    "get_scenario",
    "list_gpus",
    "list_models",
    "list_scenarios",
    "load_spec_file",
    "make_node",
    "merge_scenario",
    "register_scenario",
    "run_experiment",
    "run_scenario",
    "run_spec",
    "simulate",
    "task_from_job",
]

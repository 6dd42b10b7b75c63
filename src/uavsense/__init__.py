"""Slot-based simulator and completion-time optimizer for cooperative
sensing UAV cellular networks."""

from .analysis import SensitivityInputs, dTmax_dPRth, dTmax_dq
from .audit import audit_trace
from .bench import (
    ExperimentResult,
    Scenario,
    ScenarioConfig,
    audit_solution,
    generate_scenario,
    nc_config,
    run_experiment,
    run_scheme,
)
from .channel import ChannelParams, Position3, rate_at
from .itsso import ItssoConfig, Solution, initial_solution, run_itsso
from .placement import SensingAssignment, optimize_sensing_locations
from .scheduler import GreedyScheduler, RandomScheduler, schedule_slot
from .sensing import (
    SensingParams,
    Task,
    min_cooperative_uavs,
    required_sensing_radius,
    sensing_success_coop,
)
from .simulator import SimOutcome, UavPlan, run
from .trajectory import KinematicParams, Leg, delta_lower_bound, optimize_leg, rate_gradient

__version__ = "0.1.0"

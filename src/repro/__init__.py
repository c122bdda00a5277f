"""repro - selfish IEEE 802.11 DCF as a non-cooperative repeated game.

A full reproduction of *"Selfishness, Not Always A Nightmare: Modeling
Selfish MAC Behaviors in Wireless Mobile Ad Hoc Networks"* (Lin Chen and
Jean Leneutre, ICDCS 2007), comprising:

* :mod:`repro.phy` - PHY/MAC constants (paper Table I) and slot timing;
* :mod:`repro.bianchi` - Bianchi's saturated-DCF Markov chain generalised
  to heterogeneous contention windows, with the coupled fixed point and
  throughput model (paper Section III);
* :mod:`repro.game` - the repeated MAC game, TFT/GTFT strategies, Nash
  equilibrium analysis and refinement, the distributed search protocol,
  and the short-sighted/malicious deviation studies (Sections IV-V);
* :mod:`repro.multihop` - the multi-hop extension: topologies, random
  waypoint mobility, local games and the quasi-optimal equilibrium of
  Theorem 3 (Section VI);
* :mod:`repro.sim` - a slot-accurate saturated-DCF simulator (single
  collision domain and spatial multi-hop), replacing the paper's NS-2
  experiments;
* :mod:`repro.experiments` - one module per table/figure of Section VII.

Quickstart
----------
>>> from repro import MACGame, analyze_equilibria
>>> game = MACGame(n_players=5)
>>> analysis = analyze_equilibria(game.n_players, game.params, game.times)
>>> analysis.window_star  # the efficient NE contention window
78
"""

from repro.errors import (
    ConvergenceError,
    GameDefinitionError,
    ParameterError,
    ProtocolError,
    ReproError,
    SimulationError,
    StrategyError,
    TopologyError,
)
from repro.phy import (
    AccessMode,
    PhyParameters,
    SlotTimes,
    default_parameters,
    slot_times,
)
from repro.bianchi import (
    BackoffChain,
    FixedPointSolution,
    SymmetricSolution,
    normalized_throughput,
    solve_heterogeneous,
    solve_symmetric,
)
from repro.game import (
    BestResponseStrategy,
    ConstantStrategy,
    EquilibriumAnalysis,
    GenerousTitForTat,
    MACGame,
    MaliciousStrategy,
    RepeatedGameEngine,
    ShortSightedStrategy,
    Strategy,
    TitForTat,
    analyze_deviation,
    analyze_equilibria,
    breakeven_window,
    efficient_window,
    is_symmetric_equilibrium,
    optimal_tau,
    q_function,
    refine_equilibria,
    run_search_protocol,
    window_for_tau,
)

__version__ = "1.1.0"

__all__ = [
    "AccessMode",
    "BackoffChain",
    "BestResponseStrategy",
    "ConstantStrategy",
    "ConvergenceError",
    "EquilibriumAnalysis",
    "FixedPointSolution",
    "GameDefinitionError",
    "GenerousTitForTat",
    "MACGame",
    "MaliciousStrategy",
    "ParameterError",
    "PhyParameters",
    "ProtocolError",
    "RepeatedGameEngine",
    "ReproError",
    "ShortSightedStrategy",
    "SimulationError",
    "SlotTimes",
    "Strategy",
    "StrategyError",
    "SymmetricSolution",
    "TitForTat",
    "TopologyError",
    "__version__",
    "analyze_deviation",
    "analyze_equilibria",
    "breakeven_window",
    "default_parameters",
    "efficient_window",
    "is_symmetric_equilibrium",
    "normalized_throughput",
    "optimal_tau",
    "q_function",
    "refine_equilibria",
    "run_search_protocol",
    "slot_times",
    "solve_heterogeneous",
    "solve_symmetric",
    "window_for_tau",
]

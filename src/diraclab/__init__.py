"""Numerical laboratory for nonlinear Dirac systems.

Submodules
----------
algebra       the Dirac matrices each kernel steps with, exact relation checks
weights       analytic weight functions with derivatives and singular combos
grids         1D and radial grids, derivatives, quadrature
nonlinearity  nonlinearity catalog, Wirtinger gradients, admissibility checks
exact         closed-form solitary waves and the lab/spinor change of frame
dynamics      semi-discrete right-hand sides and the RK4 evolution loop
observables   charge, energy, momentum, region masses, parity diagnostics
virials       weighted functionals, exact d/dt laws, identity verification
bridge        second-order reformulation residuals and the Gronwall monitor
scenarios     config-driven runs and the one runner
studies       the bundled long-horizon studies: configs, posts, checks
"""

from . import (algebra, bridge, dynamics, exact, grids, nonlinearity,
               observables, virials, weights)

__all__ = ["algebra", "bridge", "dynamics", "exact", "grids",
           "nonlinearity", "observables", "virials", "weights"]
__version__ = "0.1.0"

"""Artificial magnetic fields for light in periodically driven lattices.

A square array of coupled single-mode channels with a site-local drive
beta[n,m](t) = beta0 + F m + A H(omega t + sigma n + rho m) realizes, at
the resonance F = M omega and after period-averaging, a charged particle
hopping on a magnetic lattice with flux alpha = sigma M / (2 pi) per
plaquette.  The package integrates the exact driven model, builds and
integrates the effective magnetic model, evaluates the effective hoppings
by quadrature and by closed forms, computes magnetic band structure,
follows semiclassical orbits, extracts fringe/COM observables, and
converts normalized parameters to fabrication numbers for bent,
index-modulated waveguide arrays.
"""

# each module's __all__ is its public surface; the package republishes it
from . import (config, core, dynamics, effective, hopping, observables,
               physical, runner, spectrum)
from ._version import __version__
from .config import *
from .core import *
from .dynamics import *
from .effective import *
from .hopping import *
from .observables import *
from .physical import *
from .runner import *
from .spectrum import *

__all__ = ["__version__", *config.__all__, *core.__all__, *dynamics.__all__,
           *effective.__all__, *hopping.__all__, *observables.__all__,
           *physical.__all__, *runner.__all__, *spectrum.__all__]

"""maenv: envelopes of quasi-plurisubharmonic functions and degenerate
complex Monge-Ampere equations, in two reductions where everything is
computable to tolerance:

* complex dimension one on the flat torus [0,1)^2 — curvature is the
  periodic Laplacian over 2*pi, envelopes are obstacle problems, and the
  equations are semilinear;
* radially symmetric potentials on complex projective space — profiles of
  t = log|z|^2 with a slope constraint, envelopes are convex hulls.

The public surface re-exports the grid types, both envelope routes (the
projected-SOR obstacle solver and the penalization scheme), the equation
solver with its structural constructions (minimum composition, Perron
folding), energy/capacity functionals, and the viscosity-side checks and
pipeline.  Each library module lists its public names in ``__all__``, and
this package republishes exactly those.
"""

from .errors import *
from .torus import *
from .radial import *
from .obstacle import *
from .equations import *
from .energy import *
from .viscosity import *
from .fields import *

__version__ = "0.1.0"

"""Exponential sums, character sums, summation formulas and L-value experiments.

The package splits into six layers, each importable on its own:

* modular: prime-modulus arithmetic, primitive roots, unit and inverse rows.
* characters: Dirichlet characters mod a prime via a primitive-root index.
* expsums: trivial delta expansion, Ramanujan/Gauss/Kloosterman sums and the
  paired unit-sum families with their closed forms.
* transforms: smooth windows (derivatives from truncated Taylor series),
  Fourier duals and the Voronoi-Bessel kernel transforms with decay
  diagnostics.
* lfunctions: Hecke coefficient sequences, smoothed sums, central L-values
  with a Hurwitz-zeta oracle, amplifier data and Burgess-ratio sweeps.
* identities: stage-by-stage checks of the amplified moment pipeline plus
  named verification suites.

Everything public is re-exported here; the submodules remain the reference
for contracts and conventions.
"""

from .modular import *
from .modular import __all__ as _modular_all
from .characters import *
from .characters import __all__ as _characters_all
from .expsums import *
from .expsums import __all__ as _expsums_all
from .transforms import *
from .transforms import __all__ as _transforms_all
from .lfunctions import *
from .lfunctions import __all__ as _lfunctions_all
from .identities import *
from .identities import __all__ as _identities_all

__version__ = "0.1.0"

__all__ = (
    list(_modular_all)
    + list(_characters_all)
    + list(_expsums_all)
    + list(_transforms_all)
    + list(_lfunctions_all)
    + list(_identities_all)
    + ["__version__"]
)

"""eqmack: exact equivariant homological algebra over finite groups.

Finite G-sets, Mackey functors, the tensor of a simplicial G-set with a
Mackey functor, Bredon and RO(G)-graded homology and loop-space
comparisons, all over exact integer arithmetic.

Each module's __all__ is its public surface: the entry points and the
types they return.  A public name outside it is a helper of the package.
"""

__version__ = "0.1.0"

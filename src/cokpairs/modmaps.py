"""Maps from a free module (Z/a)^n into a finite abelian group.

These are the surjection candidates of the counting machinery: a map is
stored as its coordinate columns, one tuple of target coordinates per
standard basis vector.  Deleting a set of coordinates restricts to the
submodule spanned by the remaining basis vectors, which is how code
distance and depth are defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mod

from .groups import FinAbGroup, _onto, subgroup_order


@dataclass(frozen=True, init=False)
class ModuleMap:
    """Hom((Z/modulus)^n, target): column j holds the target coordinates of
    the image of basis vector j, each reduced mod its target generator order."""

    modulus: int
    target: FinAbGroup
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, modulus: int, target: FinAbGroup, columns):
        # one checked pass; the fields are written once, past the frozen guard
        if target.exponent and modulus % target.exponent:
            raise ValueError("modulus must be a multiple of the target exponent")
        orders = target.generator_orders
        if set(map(len, columns)) - {len(orders)}:
            raise ValueError("column length does not match the target's rank")
        columns = tuple([tuple(map(mod, c, orders)) for c in columns])
        self.__dict__.update(modulus=modulus, target=target, columns=columns)

    @staticmethod
    def from_matrix(modulus: int, target: FinAbGroup, columns) -> "ModuleMap":
        return ModuleMap(modulus, target, tuple(columns))

    @property
    def n(self) -> int:
        return len(self.columns)

    def block(self, p: int) -> list[list[int]]:
        """p-part coordinate matrix, rows = target p-generators, cols = basis."""
        return [[c[i] for c in self.columns] for i in self.target.generator_indices(p)]

    def surjective_avoiding(self, excluded: frozenset[int] = frozenset()) -> bool:
        """Whether the restriction to basis vectors outside `excluded` is onto."""
        return _onto(self.target, [c for j, c in enumerate(self.columns) if j not in excluded])

    def image_index_avoiding(self, excluded: frozenset[int]) -> int:
        """Index [target : image of the restricted map]."""
        kept = [c for j, c in enumerate(self.columns) if j not in excluded]
        return self.target.order // subgroup_order(self.target, kept)

"""Maps from a free module (Z/a)^n into a finite abelian group.

These are the surjection candidates of the counting machinery: a map is
stored as one target element per standard basis vector.  Deleting a set of
coordinates restricts to the submodule spanned by the remaining basis
vectors, which is how code distance and depth are defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FinAbGroup, GroupElement, _onto, subgroup_order


@dataclass(frozen=True)
class ModuleMap:
    """Hom((Z/modulus)^n, target) via images of the standard basis."""

    modulus: int
    n: int
    target: FinAbGroup
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        if self.target.exponent and self.modulus % self.target.exponent:
            raise ValueError("modulus must be a multiple of the target exponent")
        if len(self.images) != self.n:
            raise ValueError("need one image per basis vector")
        for img in self.images:
            if img.group != self.target:
                raise ValueError("image in the wrong group")

    @staticmethod
    def from_matrix(modulus: int, target: FinAbGroup, columns) -> "ModuleMap":
        imgs = tuple(GroupElement(target, tuple(col)) for col in columns)
        return ModuleMap(modulus, len(imgs), target, imgs)

    @classmethod
    def _trusted(cls, modulus: int, target: FinAbGroup, images) -> "ModuleMap":
        """A map built without checks: modulus must be a multiple of the
        target's exponent and images a tuple of elements of target."""
        f = object.__new__(cls)
        f.__dict__.update(modulus=modulus, n=len(images), target=target, images=images)
        return f

    def block(self, p: int) -> list[list[int]]:
        """p-part coordinate matrix, rows = target p-generators, cols = basis."""
        idx = list(self.target.generator_indices(p))
        return [[img.coords[i] for img in self.images] for i in idx]

    def surjective_avoiding(self, excluded: frozenset[int] = frozenset()) -> bool:
        """Whether the restriction to basis vectors outside `excluded` is onto."""
        return _onto(
            self.target, [img.coords for j, img in enumerate(self.images) if j not in excluded]
        )

    def image_index_avoiding(self, excluded: frozenset[int]) -> int:
        """Index [target : image of the restricted map]."""
        gens = [self.images[j] for j in range(self.n) if j not in excluded]
        return self.target.order // subgroup_order(self.target, gens)

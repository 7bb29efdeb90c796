"""Built-in mask geometries for the BCC and FCC lattices.

Each preset lists weight-class representative vectors in construction
order; the full mask is the union of their signed-permutation orbits.
"""

from __future__ import annotations

from .lattice import lattice_by_name, signed_permutation_orbit
from .weight_opt import MaskGeometry

_PRESET_REPS = {
    "z2-1": ("Z2", ((1, 0),)),
    "z2-2": ("Z2", ((1, 0), (1, 1))),
    "z2-3": ("Z2", ((1, 0), (1, 1), (2, 1))),
    "z3-1": ("Z3", ((1, 0, 0),)),
    "z3-2": ("Z3", ((1, 0, 0), (1, 1, 0))),
    "z3-3": ("Z3", ((1, 0, 0), (1, 1, 0), (1, 1, 1))),
    "bcc1": ("BCC", ((1, 1, 1),)),
    "bcc2": ("BCC", ((1, 1, 1), (2, 0, 0))),
    "bcc3": ("BCC", ((1, 1, 1), (2, 0, 0), (2, 2, 0))),
    "bcc4": ("BCC", ((1, 1, 1), (2, 0, 0), (2, 2, 0), (3, 1, 1))),
    "fcc1": ("FCC", ((1, 1, 0),)),
    "fcc2": ("FCC", ((1, 1, 0), (2, 0, 0))),
    "fcc3": ("FCC", ((1, 1, 0), (2, 0, 0), (2, 1, 1))),
    "fcc4": ("FCC", ((1, 1, 0), (2, 0, 0), (2, 1, 1), (2, 2, 2))),
}

PRESET_NAMES = tuple(sorted(_PRESET_REPS))


def preset_geometry(name: str, spacing=None) -> MaskGeometry:
    key = name.lower()
    if key not in _PRESET_REPS:
        raise KeyError(f"unknown preset {name!r}; expected one of "
                       f"{', '.join(PRESET_NAMES)}")
    lat_name, reps = _PRESET_REPS[key]
    lattice = lattice_by_name(lat_name, spacing)
    classes = tuple(tuple(signed_permutation_orbit(r)) for r in reps)
    return MaskGeometry(lattice, classes)


def preset_mask(name: str, weights, spacing=None):
    geom = preset_geometry(name, spacing)
    if len(weights) != geom.num_classes:
        raise ValueError(f"preset {name} needs {geom.num_classes} weights, "
                         f"got {len(weights)}")
    return geom.mask_with(tuple(weights))

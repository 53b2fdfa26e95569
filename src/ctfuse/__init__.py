"""Slice-context fusion operators for volumetric feature maps.

Six interchangeable layers that turn a 2D convolution kernel into a 3D
one, each mixing information across axial slices differently (or not at
all), plus manual gradients, an exact parameter/MAC cost model, probes
for gradient correctness and axial translation equivariance, a small
multi-scale backbone with a depth-collapse head, and a synthetic
training demo where cross-slice mixing is the whole game.
"""

from .ctf import ContainerError, read_manifest, read_tensor, write_manifest, write_tensor
from .operators import (
    ALL_KINDS,
    OperatorGrads,
    OperatorKind,
    OperatorState,
    acs_split,
    backward,
    forward,
    inflate,
    load_operator,
    save_operator,
)
from .rng import SeededRng
from .tensor import (
    ShapeError,
    axial_shift,
    conv3d_backward,
    conv3d_forward,
    identity_mix,
    slice_contract_backward,
    slice_contract_forward,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "ContainerError",
    "OperatorGrads",
    "OperatorKind",
    "OperatorState",
    "SeededRng",
    "ShapeError",
    "acs_split",
    "axial_shift",
    "backward",
    "conv3d_backward",
    "conv3d_forward",
    "forward",
    "identity_mix",
    "inflate",
    "load_operator",
    "read_manifest",
    "read_tensor",
    "save_operator",
    "slice_contract_backward",
    "slice_contract_forward",
    "write_manifest",
    "write_tensor",
    "__version__",
]

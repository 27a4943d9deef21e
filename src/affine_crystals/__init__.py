"""Three exact realizations of affine type A highest weight crystals --
perfect-crystal paths, Young-wall tuples, and quiver-variety kernel data --
with the explicit isomorphisms between them."""

from .cartan import RootVec, Weight, cl_root, decompose, pairing, root, rotate, weight
from .crystal_core import TensorProd, check_axioms, generate_graph
from .iso import (
    IsoReport,
    adj_path_from_kernels,
    b1_path_from_kernels,
    bn_path_from_kernels,
    peel_adj,
    peel_column0,
    run_pipeline,
)
from .linalg import PRIME, GradedMap
from .paths import Path, factor_from_content, from_word, ground_path, lowering_steps, parse_word
from .perfect import (
    AdjElem,
    B1Elem,
    BnElem,
    ground_adj,
    ground_b1,
    ground_bn,
    merge_pair,
    split_adj,
    verify_perfect,
)
from .quiver import KernelTable, WallMap, commutant_basis, generic_kernel_table, wall_graded_map
from .walls import WallTuple, make_walls, path_to_walls, strip_column0, validate, walls_to_path

__version__ = "0.1.0"

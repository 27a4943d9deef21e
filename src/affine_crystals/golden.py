"""Frozen reference data for the bundled worked example.

n = 2, highest weight 2L0 + L1 (level 3), lowering word 1^4 2^5 1^2 0^4 2 1.
Every value below is pinned by the regression suite: the three path
realizations, the two wall tuples, the matrix-unit lists, the commutant
dimension and the generic kernel filtration tables.
"""

from __future__ import annotations

from .cartan import root, weight
from .paths import parse_word

N = 2
LAM = weight((2, 1, 0))
WORD = parse_word("1^4 2^5 1^2 0^4 2 1")
ALPHA = root((4, 7, 6))

# path factors at positions 0, 1, 2, ... (multiplicity vectors)
P1_FACTORS = [(1, 1, 1), (0, 0, 3), (0, 2, 1), (0, 1, 2), (0, 2, 1)]
PN_FACTORS = [(2, 1, 0), (3, 0, 0), (0, 1, 2), (3, 0, 0), (0, 3, 0), (1, 0, 2)]
AD_FACTORS = [  # (mbar, m, k)
    ((2, 1, 0), (0, 2, 1), 3),
    ((1, 0, 0), (0, 0, 1), 1),
    ((0, 1, 0), (0, 1, 0), 1),
    ((0, 1, 0), (0, 1, 0), 1),
]

P1_RENDERS = ["[1,2,3]", "[3,3,3]", "[2,2,3]", "[2,3,3]", "[2,2,3]"]
PN_RENDERS = ["[2~,1~,1~]", "[1~,1~,1~]", "[3~,3~,2~]", "[1~,1~,1~]",
              "[2~,2~,2~]", "[3~,3~,1~]"]
AD_RENDERS = ["rows: [1,2,2,2,2,3],[3,3,3]", "rows: [2,3],[3]",
              "rows: [1,2],[3]", "rows: [1,2],[3]"]

WALLS_P1 = {"charges": (0, 0, 1), "heights": ((2, 1, 1), (3, 1, 1), (3, 3, 1, 1))}
WALLS_PN = {"charges": (0, 0, 1), "heights": ((3, 1, 1), (3, 1), (3, 2, 1, 1, 1))}

# (s, src, dst) triples of the matrix units
X_UNITS = {(0, 0, 0), (0, 1, 1), (0, 3, 2), (0, 5, 3), (1, 2, 4),
           (2, 0, 0), (2, 2, 1), (2, 5, 3), (2, 6, 4)}
XBAR_UNITS = {(0, 2, 3), (1, 0, 0), (1, 2, 1), (1, 5, 2), (1, 6, 3),
              (2, 0, 0), (2, 3, 4), (2, 4, 5)}

COMMUTANT_DIM = 29

KER_X = [(0, 0, 0), (3, 3, 2), (4, 4, 5), (4, 6, 6), (4, 7, 6)]
KER_XBAR = [(0, 0, 0), (3, 3, 3), (3, 6, 4), (4, 6, 5), (4, 7, 5), (4, 7, 6)]
KER_XXBAR = [(0, 0, 0), (4, 6, 5), (4, 7, 6)]
KER_XBAR_XXBAR = [(3, 3, 3), (4, 7, 5), (4, 7, 6)]

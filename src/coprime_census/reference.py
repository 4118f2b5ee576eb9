"""Published reference values for the three count tables, with errata,
and the literature brackets for the density of phi(m)/m.

Sources: OEIS A005326 (coprime permutations of [n]) and A009679
(partitions of [2n] into coprime pairs), plus the published table of
anti-coprime counts.  ``counts.check_table`` is the one comparison
against these tables: a recomputed row matches when its count equals the
value here and its ratio, printed by ``counts.format_ratio``, equals the
4-decimal string here.  ``BRACKETS`` is the one copy of the literature
brackets; the lower-bound assembly, ``verify --suite lemmas`` and
``scripts/distribution_scan.py`` read it directly.

Five published entries fail verification and are recorded in the errata
maps below; everywhere the toolkit checks tables it asserts the
*corrected* value and, for errata rows, that the published entry indeed
disagrees (so a silent regression toward the typo would be caught):

* C(11): published 129,774; direct enumeration of all 11! permutations,
  a column-subset DP, backtracking search and the permanent double sum
  all give 129,744 (digit transposition).
* r_13 published 1.7776: the published C(13) = 3,521,232 itself yields
  (13!/C(13))^(1/13) = 1.77752, which prints as 1.7775.
* r_30 published 2.3850: the published C0(15) yields 2.385124 -> 2.3851.
* r_40 published 2.4029: the published C0(20) yields 2.402086 -> 2.4021.
* u_6 published 2.1170: the published A(6) = 8 yields 2.116937 -> 2.1169.
"""

from __future__ import annotations

from fractions import Fraction

# n -> (C0(n), corrected 4-decimal (2n)!-ratio r_{2n})
TABLE_C0: dict[int, tuple[int, str]] = {
    1: (1, "1.4142"),
    2: (2, "1.5651"),
    3: (4, "1.8860"),
    4: (18, "1.8276"),
    5: (60, "1.9969"),
    6: (252, "2.1044"),
    7: (1860, "2.0625"),
    8: (9552, "2.1629"),
    9: (59616, "2.2260"),
    10: (565920, "2.2082"),
    11: (4051872, "2.2707"),
    12: (33805440, "2.3118"),
    13: (465239808, "2.2727"),
    14: (4294865664, "2.3171"),
    15: (35413136640, "2.3851"),
    16: (768372168960, "2.3122"),
    17: (8757710173440, "2.3451"),
    18: (79772814777600, "2.4122"),
    19: (1986906367584000, "2.3531"),
    20: (22082635812268800, "2.4021"),
    21: (280886415019776000, "2.4374"),
    22: (7683780010315046400, "2.3905"),
    23: (102400084005498547200, "2.4278"),
    24: (1774705488555494476800, "2.4401"),
    25: (40301474964335327232000, "2.4291"),
}

# odd n -> (C(n), corrected 4-decimal ratio r_n)
TABLE_C_ODD: dict[int, tuple[int, str]] = {
    1: (1, "1.0000"),
    3: (3, "1.2599"),
    5: (28, "1.3378"),
    7: (256, "1.5307"),
    9: (3600, "1.6696"),
    11: (129744, "1.6834"),
    13: (3521232, "1.7775"),
    15: (60891840, "1.9444"),
    17: (8048712960, "1.8761"),
    19: (425476094976, "1.9372"),
    21: (12474417291264, "2.0648"),
    23: (2778580249611264, "2.0090"),
    25: (172593628397420544, "2.0804"),
    27: (17730530614153986048, "2.1159"),
    29: (4988322633552214818816, "2.0841"),
    31: (427259978841815654400000, "2.1466"),
    33: (57266563000754880493977600, "2.1818"),
    35: (14786097120330296843693260800, "2.1798"),
    37: (3004050753199657126879764480000, "2.1988"),
    39: (536232134065318935894365552640000, "2.2295"),
    41: (274431790155416580402144584785920000, "2.2058"),
    43: (51681608012142138983265921023262720000, "2.2409"),
    45: (7417723304411612192092096851178291200000, "2.2918"),
    47: (7896338788322918879731318625512774041600000, "2.2459"),
    49: (1989208671980285257956064090726080876380160000, "2.2743"),
}

# composite n -> (A(n), corrected 4-decimal ratio u_n)
TABLE_A: dict[int, tuple[int, str]] = {
    4: (2, "1.8612"),
    6: (8, "2.1169"),
    8: (30, "2.4607"),
    9: (72, "2.5786"),
    10: (408, "2.4826"),
    12: (4104, "2.6440"),
    14: (29640, "2.8976"),
    15: (208704, "2.8388"),
    16: (1437312, "2.8034"),
    18: (22653504, "2.9479"),
    20: (318695040, "3.1199"),
    21: (2686493376, "3.0866"),
    22: (27628410816, "3.0356"),
    24: (575372874240, "3.1722"),
    25: (1775480841216, "3.2935"),
    26: (21115550048256, "3.2420"),
    27: (132879856582656, "3.2758"),
    28: (2321256928702464, "3.1932"),
    30: (83095013944442880, "3.2870"),
}


# published entries that fail verification: key -> (published, corrected)
ERRATA_COUNTS: dict[tuple[str, int], tuple[int, int]] = {
    ("c", 11): (129774, 129744),
}
ERRATA_RATIOS: dict[tuple[str, int], tuple[str, str]] = {
    ("r", 13): ("1.7776", "1.7775"),
    ("r", 30): ("2.3850", "2.3851"),
    ("r", 40): ("2.4029", "2.4021"),
    ("u", 6): ("2.1170", "2.1169"),
}

# literature brackets (alpha, lower, upper) for the limiting density
# delta(alpha) of odd m with phi(m)/m <= alpha (Kobayashi for 0.5; Wall
# for 0.6..0.9; the last two from the Mertens-product tail estimate).
# The upper ends are the density bounds of the lower-bound assembly.
BRACKETS: tuple[tuple[Fraction, float, float], ...] = (
    (Fraction(1, 2), 0.02240, 0.02352),
    (Fraction(6, 10), 0.1160, 0.1624),
    (Fraction(7, 10), 0.3556, 0.3794),
    (Fraction(8, 10), 0.4808, 0.5120),
    (Fraction(9, 10), 0.5644, 0.6310),
    (Fraction(99, 100), 0.7593, 0.7949),
    (Fraction(999, 1000), 0.8380, 0.8539),
)


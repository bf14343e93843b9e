"""The 264 realizable labeled 5-vertex triple-sign assignments.

Each entry packs the ten triple signs of five vertices (triples in
lexicographic order, bit t set when the t-th triple is counterclockwise) into
a 10-bit integer.  The table was produced by enumerating all 5-point subsets
of a small integer grid, closing under relabeling and mirror reflection, and
cross-checked against an independent axiomatic enumeration (three-term sign
exchange plus acyclicity over all 4-subsets); the test suite re-derives it by
both routes.

The full check ``signatures.is_realizable`` does not use the table; it
serves ``signatures.realizable_after_flip``, which re-checks only the
5-subsets around one flipped triple, and the tests' 5-subset oracle.
"""

REALIZABLE5 = frozenset((
    0, 1, 3, 4, 6, 7, 11, 15, 20, 22, 30, 31,
    32, 33, 48, 52, 56, 60, 62, 63, 64, 68, 72, 74,
    75, 76, 77, 79, 84, 85, 93, 95, 96, 112, 116, 117,
    119, 127, 129, 131, 138, 139, 145, 146, 147, 148, 149, 150,
    154, 158, 161, 165, 180, 181, 188, 190, 192, 193, 200, 202,
    209, 213, 216, 217, 218, 221, 222, 223, 224, 225, 229, 231,
    245, 247, 254, 255, 262, 263, 271, 274, 278, 280, 282, 286,
    287, 288, 289, 290, 293, 294, 295, 304, 306, 312, 387, 391,
    392, 394, 395, 399, 402, 403, 408, 410, 421, 423, 432, 434,
    435, 436, 437, 439, 440, 444, 448, 449, 451, 455, 456, 465,
    467, 472, 473, 487, 499, 503, 504, 505, 507, 508, 510, 511,
    512, 513, 515, 516, 518, 519, 520, 524, 536, 550, 551, 556,
    558, 567, 568, 572, 574, 575, 579, 583, 584, 586, 587, 588,
    589, 591, 600, 602, 613, 615, 620, 621, 624, 628, 629, 631,
    632, 636, 711, 717, 719, 728, 729, 730, 733, 734, 735, 736,
    737, 741, 743, 745, 749, 752, 760, 761, 768, 769, 776, 778,
    792, 794, 798, 799, 800, 801, 802, 805, 806, 807, 810, 814,
    821, 823, 830, 831, 833, 835, 842, 843, 858, 862, 865, 869,
    873, 874, 875, 876, 877, 878, 884, 885, 892, 894, 896, 904,
    906, 907, 911, 927, 928, 930, 938, 939, 944, 946, 947, 948,
    949, 951, 955, 959, 960, 961, 963, 967, 971, 975, 990, 991,
    992, 993, 1001, 1003, 1008, 1012, 1016, 1017, 1019, 1020, 1022, 1023,
))

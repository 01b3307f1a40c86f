"""Known exact values that every workload's results are checked against.

All are exhaustive counts or closed forms, independent of the seed; only the
number of witness queries that find a zero-sum varies with it.
"""

# search
DAVENPORT_NODES = {2: 2, 3: 7, 4: 68, 5: 308, 6: 7984, 7: 28211}
PROPERTY_B = {2: (1, 3), 3: (1, 7), 4: (2, 62), 5: (5, 267), 6: (13, 6586)}  # orbits, nodes
PROPERTY_C = {2: (1, 3), 3: (1, 11), 4: (1, 115), 5: (2, 632)}  # orbits, nodes
CASEN_5_1 = (45, 4109, {"item1": 44, "item2": 1, "both": 0, "unclassified": 0})

# sequence-checks
PERTURBATION_CASES = 45_166
ITEM1_SAMPLES = 10_000
ITEM2_CANDIDATES = 294
EXCEPTIONAL_COUNT = 32
DECOMPOSITIONS = 64
WITNESS_MODULI = (5, 7, 8)
WITNESS_SEQUENCES = 200

# cli-cache
CENSUS_ORBITS = 5_857
CENSUS_NODES = 7_697
CENSUS_LISTED = 100  # the enumerate command's default --limit


def expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"

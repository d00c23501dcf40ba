"""The bundled 20-indicator index, restated for the benchmark.

The generator and the oracle read the tree from here rather than from the
package, so that the oracle stays independent of ``igei``.  The
self-tests check that this restatement matches the bundled
``igei_tree.yaml``.
"""

# domain -> sub-domains -> indicators; a domain without declared
# sub-domains has one implicit sub-domain named after it
TREE = (
    ("work", (("participation", ("G1",)),
              ("quality_and_entrepreneurship", ("G2", "G3")))),
    ("economy", (("economy", ("G4", "G5")),)),
    ("knowledge", (("attainment_and_participation", ("G6", "G7")),
                   ("segregation", ("G8",)))),
    ("time", (("care_activities", ("G9", "G10")),
              ("social_activities", ("G11", "G12")))),
    ("politics", (("politics", ("G13", "G14")),)),
    ("health", (("health_status", ("G15", "G16", "G17")),
                ("health_behaviours", ("G18", "G19", "G20")))),
)

DOMAINS = tuple(dom for dom, _ in TREE)
LEAVES = tuple(ind for _, subs in TREE for _, inds in subs for ind in inds)

# indicator -> (metric kind, polarity, correction); a correction is
# "own" (own total level), "none", or (source indicator, source column)
INDICATORS = {
    "G1": ("standard", "positive", "own"),
    "G2": ("standard", "negative", "own"),
    "G3": ("share", "positive", ("G1", "x_a")),
    "G4": ("standard", "positive", "own"),
    "G5": ("standard", "positive", "own"),
    "G6": ("standard", "positive", "own"),
    "G7": ("standard", "positive", "own"),
    "G8": ("standard", "positive", ("G6", "x_a")),
    "G9": ("ratio", "positive", ("G1", "x_w")),
    "G10": ("capped", "positive", "none"),
    "G11": ("standard", "positive", "own"),
    "G12": ("standard", "positive", "own"),
    "G13": ("share", "positive", "none"),
    "G14": ("share", "positive", "none"),
    "G15": ("standard", "positive", "own"),
    "G16": ("standard", "positive", "own"),
    "G17": ("standard", "positive", "own"),
    "G18": ("standard", "negative", "own"),
    "G19": ("standard", "negative", "own"),
    "G20": ("standard", "positive", "own"),
}

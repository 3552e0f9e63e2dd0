"""
Parsing and exploring a decomposition network
=============================================

"""

# The bundled mini corpus ships inside the package; every demo reads it
# the same way.
from importlib import resources

from glyphorder import build_network, parse_decompositions


def bundled(name):
    return resources.files("glyphorder").joinpath("data/" + name).read_text(encoding="utf-8")


# A decomposition file is four tab-separated columns: glyph, kind code,
# space-separated components, stroke count. Kinds are p (primitive
# character), pc (primitive component), c (compound), v (variant).
net = build_network(parse_decompositions(bundled("decompositions.tsv")))
print("parsed %d glyphs" % len(net))

# Each node remembers its direct components with multiplicity. 品 is
# three mouths, and all three count.
node = net.node("品")
print("品 components:", node.components, "strokes:", node.strokes)

# The closure is everything a glyph transitively needs, in depth-first
# preorder over the stored component order, deduplicated: 照 needs its
# phonetic 昭 (itself 日 plus 召, which is 刀 over 口) and the fire
# variant 灬, which descends from 火.
print("照 closure:", " ".join(net.closure("照")))

# A variant's closure is its base glyph, so whoever needs 灬 needs 火.
print("灬 closure:", " ".join(net.closure("灬")))

# Containment runs the other way: which glyphs use 口 directly, and
# which reach it through any depth?
print("direct containers of 口:", " ".join(sorted(net.containers("口"))))
users = sorted(g for g in net.ids() if "口" in net.closure(g))
print("all users of 口:", " ".join(users))

# Two glyphs are "sharers" when they have a direct component in common:
# the containers of 知's components, 知 aside. The clustering metric's
# d2 is the distance from each item of an order to its nearest sharer.
sharers = {g for comp in net.node("知").components for g in net.containers(comp)}
print("glyphs sharing a direct component with 知:", " ".join(sorted(sharers - {"知"})))

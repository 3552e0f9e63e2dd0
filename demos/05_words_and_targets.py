"""
Sequencing whole words and narrow target lists
==============================================

"""

from importlib import resources

from glyphorder import (CostParams, WordNetworkConfig, build_network, centralities, curve,
                        expand_with_words, parse_decompositions, parse_frequencies,
                        parse_target_list, priority_topo_sort)
from glyphorder.ordering import target_pool


def bundled(name):
    return resources.files("glyphorder").joinpath("data/" + name).read_text(encoding="utf-8")


base = build_network(parse_decompositions(bundled("decompositions.tsv")))

# A word corpus counts tokens as they occur in text: multi-character
# words, plus characters standing alone as one-character words.
word_freq = parse_frequencies(bundled("word_freq.tsv"))

# Expansion grafts the frequent multi-character words onto the network
# as sink nodes whose components are their characters. Words with a
# character the network does not know are dropped and reported, not
# guessed at.
net, freq, dropped = expand_with_words(base, word_freq, WordNetworkConfig(top_k=10000))
print("%d glyphs after expansion (%d before)" % (len(net), len(base)))
for word, reason in dropped:
    print("dropped %s: %s" % (word, reason))

# From here the machinery is unchanged: centralities over the word
# frequencies, then the repair sweep. Note 知道 lands right after the
# pieces it needs.
table = centralities(net, freq, CostParams())
order = priority_topo_sort(net, table, set(net.ids()))
ids = order.ids()
print("order around 知道:", " ".join(ids[:ids.index("知道") + 1]))

# A target list scores a narrow goal, an exam list, inside the full
# language, as `glyphorder order --target` does: the pool is the listed
# items the network has plus their closures, and the sweep orders just
# that pool. Frequencies stay normalized over the whole corpus, so the
# curve plateaus at the target's real-world coverage, not at 1.
target = parse_target_list("知道\n明白\n好\n")
pool, missing = target_pool(net, target)
sub_order = priority_topo_sort(net, table, pool)
cv = curve(net, sub_order, 30.0)
print("lesson-one order:", " ".join(sub_order.ids()))
print("missing from the network:", missing or "nothing")
print("coverage bought: final=%.3f mean=%.3f" % (cv.final_efficiency, cv.mean_efficiency))

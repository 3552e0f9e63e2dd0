"""Set-up cost as a library user pays it, in a fresh interpreter.

    python3 setup_probe.py SRC DECOMPOSITIONS FREQUENCIES [WORD_FREQUENCIES TOP_K]

Times importing `glyphorder`, parsing the workload's input files and
building its network once (with word nodes when word frequencies are
given), and prints the seconds taken and the mean time of the reference
workload, run once just before and once just after.
"""

import sys
import time

from reference import reference_seconds

before = reference_seconds()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import glyphorder  # noqa: E402


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


net = glyphorder.build_network(glyphorder.parse_decompositions(read(sys.argv[2])))
freq = glyphorder.parse_frequencies(read(sys.argv[3]))
if len(sys.argv) > 4:
    word_freq = glyphorder.parse_frequencies(read(sys.argv[4]))
    cfg = glyphorder.WordNetworkConfig(top_k=int(sys.argv[5]))
    net, word_freq, _ = glyphorder.expand_with_words(net, word_freq, cfg)
elapsed = time.perf_counter() - start
print("%.9f %.9f" % (elapsed, (before + reference_seconds()) / 2))

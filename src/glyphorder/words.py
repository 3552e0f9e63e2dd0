"""Word-network expansion.

Sequencing whole words instead of characters changes two things. The
network gains a sink node per retained multi-character word, whose
components are its characters in order and whose cost is the number of
character combinations needed (characters - 1). And frequency switches
to the word corpus entirely: a character is only worth its standalone
occurrences as a one-character word; characters that never stand alone
drop to zero and are learned only because some word needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import FrequencyTable
from .network import DecompositionNetwork, GlyphKind, GlyphNode, build_network

DEFAULT_TOP_K = 10000


@dataclass(frozen=True)
class WordNetworkConfig:
    """Word expansion settings: the frequency-rank cutoff."""

    top_k: int = DEFAULT_TOP_K

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")


def expand_with_words(net: DecompositionNetwork, word_freq: FrequencyTable,
                      cfg: WordNetworkConfig) -> tuple[DecompositionNetwork, FrequencyTable, list[tuple[str, str]]]:
    """Add word nodes for the `top_k` most frequent words.

    Multi-character words among the top_k become nodes with their
    characters, split into single code points, as components. A word is
    dropped and listed in the report as (word, reason) when it contains
    a multi-code-point id of the network, which no split can reach (the
    split would build the word from other glyphs, or from none), or else
    when one of its characters is missing from the base network; the
    reason names that id or the first missing character.
    Single-character tokens add no nodes. Only the word nodes are
    checked, since the base network is valid already. The returned
    frequency table is the word table itself, untouched: normalization
    stays over the whole corpus, and any standalone frequency applies
    whatever its rank.
    """
    ranked = sorted(word_freq.raw, key=lambda w: (-word_freq.raw[w], w))
    nodes = net._nodes
    report: list[tuple[str, str]] = []
    words = []
    # Ids such as a base letter plus a combining mark, which a word split
    # into code points can never name, by first code point, each with
    # its place in the network's order.
    multi: dict[str, list[tuple[int, str]]] = {}
    for k, glyph in enumerate([glyph for glyph in nodes if len(glyph) > 1]):
        multi.setdefault(glyph[0], []).append((k, glyph))
    clear_of_multi = multi.keys().isdisjoint
    new = tuple.__new__
    word = GlyphKind.WORD
    for token in ranked[:cfg.top_k]:
        chars = tuple(token)
        if len(chars) < 2:
            continue
        if token in nodes:
            report.append((token, "id already present in the network"))
            continue
        if not clear_of_multi(chars):
            spanning = [entry for at, ch in enumerate(chars) for entry in multi.get(ch, ())
                        if token.startswith(entry[1], at)]
            if spanning:
                report.append((token, "contains multi-code-point id %s; words are "
                                      "split into single code points" % min(spanning)[1]))
                continue
        missing = [ch for ch in chars if ch not in nodes]
        if missing:
            report.append((token, "unknown character %s" % missing[0]))
            continue
        # tuple.__new__ skips GlyphNode's Python-level __new__; a word
        # has no strokes.
        words.append(new(GlyphNode, (token, word, chars, 0)))
    return build_network(words, base=net), word_freq, report


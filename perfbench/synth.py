"""Seeded synthetic inputs: languages, word corpora, curricula, targets.

Everything here is plain Python and imports nothing from `glyphorder`, so
the inputs do not depend on the program under test. The same seed always
gives the same files.

Glyph ids are single code points from U+4E00 upward, because
`expand_with_words` splits word tokens by code point. A few variant forms
get two-code-point ids (base glyph plus a variation selector), as named
IDS components and variation sequences have in real data; word tokens
equal to those ids collide with the network. Code points from U+3400
upward never name a glyph and serve as characters unknown to the network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

BASE = 0x4E00
UNKNOWN_BASE = 0x3400
VARIATION_SELECTOR = 0xFE00


@dataclass(frozen=True)
class Glyph:
    id: str
    kind: str            # p, pc, c or v, as in the decompositions format
    comps: tuple[str, ...]
    strokes: int


@dataclass
class Language:
    glyphs: list[Glyph]
    char_counts: dict[str, int]
    word_counts: dict[str, int] = field(default_factory=dict)
    hubs: list[str] = field(default_factory=list)

    def decompositions_tsv(self) -> str:
        return "".join("%s\t%s\t%s\t%d\n" % (g.id, g.kind, " ".join(g.comps) or "-", g.strokes)
                       for g in self.glyphs)


def counts_tsv(counts: dict[str, int]) -> str:
    return "".join("%s\t%d\n" % (token, n) for token, n in counts.items())


def lines(items) -> str:
    return "".join("%s\n" % item for item in items)


def decimal_str(x: Fraction) -> str:
    """Exact decimal spelling of a fraction whose denominator is 2^a 5^b."""
    with localcontext() as ctx:
        ctx.prec = 60
        text = format(Decimal(x.numerator) / Decimal(x.denominator), "f")
    if Fraction(text) != x:
        raise ValueError("%s has no short exact decimal form" % x)
    return text


def off_grid(x: float) -> str:
    """A horizon near x whose fractional part .37 no prefix cost can have.

    With gamma 0.1 every cost is a multiple of 0.1, and with gamma 0.25 a
    multiple of 0.25, so such a horizon never equals a cumulative cost and
    float rounding of the running sum cannot decide where a curve stops.
    """
    return "%d.37" % max(0, int(x))


def _zipf_counts(order: list[str], top: int, s: float) -> dict[str, int]:
    return {tok: max(1, int(top / (rank + 1) ** s)) for rank, tok in enumerate(order)}


def _spaced(rng: random.Random, early: list[str], rest: list[str]) -> list[str]:
    """A ranking with `early` at evenly spaced places and `rest` shuffled
    into the gaps."""
    size = len(early) + len(rest)
    slots = {k * size // len(early): tok for k, tok in enumerate(early)}
    rest = list(rest)
    rng.shuffle(rest)
    fill = iter(rest)
    return [slots[r] if r in slots else next(fill) for r in range(size)]


def language(rng: random.Random, n: int, *, families: int = 8, prim_share: float = 0.16,
             component_share: float = 0.35, variant_share: float = 0.03,
             arity3_share: float = 0.25, repeat_share: float = 0.05,
             skew: float = 3.0, hubs: int = 25, multi_code_point_ids: int = 3) -> Language:
    """A decomposition network of n glyphs with Zipf-like character counts.

    The glyphs come in `families` of equal size, each built on radicals
    of its own. Knobs: the primitive share and, among primitives, the
    share of pure components (never a corpus token); arity 2 or 3 with an
    occasional repeated component; `skew` biases component choice toward
    a family's earliest glyphs, so a few radicals recur everywhere.

    Every default below is an assumption: no published decomposition or
    frequency statistics are at hand to set them from, so they are picked
    to give a plausible, sweep-heavy shape, not to match a real script.

    The first `hubs` glyphs of each family are its most reused ones, and
    on these networks the sweep's work is mostly theirs: every container
    of a rare hub pulls it forward again. Their characters take evenly
    spaced places in the frequency ranking (the rest are shuffled into
    the gaps), and several independent families average out their shapes.
    This placement is chosen for steadiness, not taken from data: with a
    shuffled ranking the sweep's work swings by half between seeds.
    """
    glyphs: list[Glyph] = []
    by_id: dict[str, Glyph] = {}
    hub_ids: list[str] = []
    vs_left = multi_code_point_ids
    size = n // families
    for f in range(families):
        family: list[Glyph] = []
        primitives: list[str] = []
        first_compound = True
        for i in range(size):
            gid = chr(BASE + f * size + i)
            if i < 6:
                # Fixed kinds for the biggest hubs. The pure component at
                # 0, used by the first compound, guarantees that the
                # pure-frequency order and rote curricula are not hierarchal.
                g = Glyph(gid, "pc" if i % 3 == 0 else "p", (), rng.randint(1, 12))
                primitives.append(gid)
            elif rng.random() < prim_share:
                kind = "pc" if rng.random() < component_share else "p"
                g = Glyph(gid, kind, (), rng.randint(1, 12))
                primitives.append(gid)
            elif rng.random() < variant_share:
                base = rng.choice(primitives)
                if vs_left and base + chr(VARIATION_SELECTOR) not in by_id:
                    gid = base + chr(VARIATION_SELECTOR)
                    vs_left -= 1
                g = Glyph(gid, "v", (base,), rng.randint(2, 8))
            else:
                arity = 3 if rng.random() < arity3_share else 2
                comps = [family[int(len(family) * rng.random() ** skew)].id for _ in range(arity)]
                if first_compound:
                    comps[0], first_compound = family[0].id, False
                if rng.random() < repeat_share:
                    comps[-1] = comps[0]
                g = Glyph(gid, "c", tuple(comps), sum(by_id[c].strokes for c in comps))
            family.append(g)
            by_id[g.id] = g
            if i < hubs and g.kind in ("p", "c"):
                hub_ids.append(g.id)
        glyphs += family
    hub_set = set(hub_ids)
    rest = [g.id for g in glyphs if g.kind in ("p", "c") and g.id not in hub_set]
    counts = _zipf_counts(_spaced(rng, hub_ids, rest), 10 ** 6, 1.0)
    # Corpus tokens outside the network still count toward the total.
    for j in range(3):
        counts[chr(UNKNOWN_BASE + j)] = rng.randint(1, 50)
    return Language(glyphs=glyphs, char_counts=counts, hubs=hub_ids)


def add_words(rng: random.Random, lang: Language, n_words: int, unknown: int = 4) -> list[str]:
    """Fill `lang.word_counts`: standalone characters plus n-gram words.

    Words are 2-4 character n-grams whose characters are drawn with weight
    proportional to the square root of their counts, so that no single
    character sits in a large share of all words. About half the
    characters also occur alone: every other hub character, at evenly
    spaced places in the word ranking, and each other character by a coin
    toss. A character that never occurs alone is pulled ahead of every
    word containing it, so for the most reused ones this is not left to
    chance. `unknown` words carry a character absent from the network, and
    every two-code-point glyph id appears as a token too, so expansion
    drops both kinds. Returns the multi-character words built only from
    network characters.
    """
    chars = [g.id for g in lang.glyphs if g.kind in ("p", "c")]
    cum = list(accumulate(lang.char_counts[c] ** 0.5 for c in chars))
    words: dict[str, None] = {}
    while len(words) < n_words:
        length = rng.choice((2, 2, 2, 3, 3, 4))
        words["".join(rng.choices(chars, cum_weights=cum, k=length))] = None
    plain = list(words)
    hubs = set(lang.hubs)
    rest = [c for c in chars if c not in hubs and rng.random() < 0.5] + plain
    counts = _zipf_counts(_spaced(rng, lang.hubs[1::2], rest), 10 ** 6, 0.9)
    # Drop cases sit in the upper half of the ranking, inside any top-k used.
    mid = sorted(counts.values())[len(counts) // 2] + 1
    for j in range(unknown):
        word = rng.choice(plain)
        at = rng.randrange(len(word) + 1)
        counts[word[:at] + chr(UNKNOWN_BASE + 100 + j) + word[at:]] = mid + j
    for k, g in enumerate(x for x in lang.glyphs if len(x.id) > 1):
        counts[g.id] = mid + unknown + k
    lang.word_counts = counts
    return plain


def kahn(glyphs: list[Glyph]) -> list[str]:
    """First-in-first-out topological order, sources in id order."""
    waiting = {g.id: len(set(g.comps)) for g in glyphs}
    parents: dict[str, list[str]] = {}
    for g in glyphs:
        for c in sorted(set(g.comps)):
            parents.setdefault(c, []).append(g.id)
    queue = sorted(gid for gid, k in waiting.items() if k == 0)
    for gid in queue:
        for p in sorted(parents.get(gid, ())):
            waiting[p] -= 1
            if waiting[p] == 0:
                queue.append(p)
    return queue


def random_topological(rng: random.Random, glyphs: list[Glyph]) -> list[str]:
    """A uniformly chosen next glyph among those whose parts are placed."""
    waiting = {g.id: len(set(g.comps)) for g in glyphs}
    parents: dict[str, list[str]] = {}
    for g in glyphs:
        for c in set(g.comps):
            parents.setdefault(c, []).append(g.id)
    ready = sorted(gid for gid, k in waiting.items() if k == 0)
    out = []
    while ready:
        k = rng.randrange(len(ready))
        ready[k], ready[-1] = ready[-1], ready[k]
        gid = ready.pop()
        out.append(gid)
        for p in sorted(parents.get(gid, ())):
            waiting[p] -= 1
            if waiting[p] == 0:
                ready.append(p)
    return out


def rote(rng: random.Random, lang: Language, share: float = 0.7) -> list[str]:
    """A textbook-like curriculum: standalone characters only, roughly
    parts first but with some compounds pulled early; never hierarchal,
    since pure components are never taught."""
    base = [gid for gid in random_topological(rng, lang.glyphs) if gid in lang.char_counts]
    base = base[:int(len(base) * share)]
    for k in range(len(base)):
        if rng.random() < 0.1:
            to = max(0, k - rng.randint(1, 50))
            base.insert(to, base.pop(k))
    return base


def small_network(rng: random.Random) -> Language:
    """A 7-10 glyph network with counts, for exhaustive search."""
    n = rng.randint(7, 10)
    glyphs: list[Glyph] = []
    for i in range(n):
        gid = chr(BASE + i)
        arity = 0 if i < 2 else rng.choice((0, 0, 1, 2, 2, 2, 3))
        if arity == 0:
            glyphs.append(Glyph(gid, rng.choice(("p", "p", "pc")), (), rng.randint(1, 12)))
        elif arity == 1:
            glyphs.append(Glyph(gid, "v", (glyphs[rng.randrange(i)].id,), rng.randint(2, 8)))
        else:
            comps = [glyphs[k].id for k in rng.sample(range(i), min(arity, i))]
            glyphs.append(Glyph(gid, "c", tuple(comps), rng.randint(2, 20)))
    counts = {g.id: rng.randint(1, 1000) for g in glyphs if g.kind != "pc"}
    return Language(glyphs=glyphs, char_counts=counts)


def exact_costs(glyphs: list[Glyph], gamma: Fraction) -> dict[str, Fraction]:
    """Costs under the README's model, from the decimal string of gamma."""
    out = {}
    for g in glyphs:
        if g.kind in ("p", "pc"):
            out[g.id] = 1 + gamma * g.strokes
        elif g.kind == "v":
            out[g.id] = Fraction(1)
        else:
            out[g.id] = Fraction(len(g.comps) - 1)
    return out


"""Seeded inputs for every workload: documents, chunking and queries.

Each function takes the seed (and ``quick`` for the benchmark's own
tests, which shrinks sizes) and returns plain bytes and query strings;
the system under test only ever sees these generated inputs.  The
corpus generators are the repository's own (:mod:`repro.datagen`), so
the documents have the shapes of the paper's datasets, plus one small
news-feed generator for the subscription workload.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.datagen.dblp import generate_dblp
from repro.datagen.shake import generate_shake
from repro.datagen.xmlgen import generate_recursive

#: One pull workload: ``[(corpus, [document, ...], [query, ...]), ...]``;
#: every query of a corpus runs over each of its documents.
PullCase = List[Tuple[str, List[bytes], List[str]]]

#: Documents per pull corpus.  A corpus of four documents gives four
#: timed passes per query per round, so the median per-pass ratio rests
#: on more samples than one pass over one big document would give.
PULL_DOCS = 4


def _documents(generator, total: int, seed: int) -> List[bytes]:
    return [generator(total // PULL_DOCS, seed=seed * PULL_DOCS + i).encode()
            for i in range(PULL_DOCS)]


def pull_child(seed: int, quick: bool = False) -> PullCase:
    """SHAKE and DBLP, ~2 MB each, child-only queries."""
    size = 200_000 if quick else 2_000_000
    return [
        ("shake", _documents(generate_shake, size, seed),
         ["/PLAY/ACT/SCENE/SPEECH/LINE/text()", "/PLAY/ACT/SCENE/SPEECH"]),
        ("dblp", _documents(generate_dblp, size, seed),
         ["/dblp/inproceedings[author]/title/text()"]),
    ]


def pull_closure(seed: int, quick: bool = False) -> PullCase:
    """The Fig 20 recursive corpus and SHAKE, ~1 MB each, ``//`` queries."""
    size = 100_000 if quick else 1_000_000
    return [
        ("recursive", _documents(generate_recursive, size, seed),
         ["//pub[year]//book[@id]/title/text()"]),
        ("shake", _documents(generate_shake, size, seed),
         ["//SPEECH[SPEAKER]//LINE/text()"]),
    ]


#: The per-corpus query a layer probe uses when no workload query of
#: that corpus lowers to the compiled tier (see ``layers.py``).
PROBE_QUERIES = {
    "shake": "/PLAY/ACT/SCENE/SPEECH/LINE/text()",
    "dblp": "/dblp/article/title/text()",
    "recursive": "/*/pub/book/title/text()",
    "feed": "/feed/item/title/text()",
}


def bulk_small(seed: int, quick: bool = False
               ) -> List[Tuple[str, List[bytes]]]:
    """``[(query, [doc, ...]), ...]``: three corpora, 2-20 KB each."""
    rng = random.Random(seed)
    per_group = 12 if quick else 100
    groups = [
        ("/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()", generate_shake),
        ("/dblp/article[author]/title/text()", generate_dblp),
        ("/*/pub/book[@id]/title/text()", generate_recursive),
    ]
    out = []
    for query, generator in groups:
        docs = [generator(rng.randint(2_000, 20_000),
                          seed=rng.randrange(1 << 30)).encode()
                for _ in range(per_group)]
        out.append((query, docs))
    return out


# -- the subscription workload ----------------------------------------------

#: Subscriptions: half child paths, half ``//`` paths, each picking the
#: items of one category, so every item goes to exactly one subscriber.
SERVE_CATEGORIES = 50

_WORDS = ("stream", "query", "buffer", "predicate", "closure", "depth",
          "vector", "automaton", "result", "item", "filter", "event",
          "parser", "market", "signal", "report", "index", "update")


def serve_queries() -> List[str]:
    half = SERVE_CATEGORIES // 2
    return (['/feed/item[cat="c%d"]/title/text()' % k
             for k in range(half)]
            + ['//item[cat="c%d"]//name/text()' % k
               for k in range(half, SERVE_CATEGORIES)])


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def feed_document(rng: random.Random, target_bytes: int) -> bytes:
    """One news-feed document: rounds of one item per category, in a
    shuffled order, each with a title and a body of two paragraphs
    carrying one name each.  Every document fans out to every
    subscription, and the work per byte barely varies across seeds."""
    parts = ["<feed>"]
    size = 6
    serial = 0
    categories = list(range(SERVE_CATEGORIES))
    while size < target_bytes:
        rng.shuffle(categories)
        for cat in categories:
            serial += 1
            body = "".join("<para>%s <name>%s</name></para>"
                           % (_phrase(rng, 2), _phrase(rng, 1))
                           for _ in range(2))
            item = ('<item id="%d"><cat>c%d</cat><title>%s</title>'
                    "<body>%s</body></item>"
                    % (serial, cat, _phrase(rng, 2), body))
            parts.append(item)
            size += len(item)
            if size >= target_bytes:
                break
    parts.append("</feed>")
    return "".join(parts).encode()


def serve_documents(seed: int, count: int, quick: bool = False
                    ) -> List[bytes]:
    rng = random.Random(seed)
    size = 4_000 if quick else 16_000
    return [feed_document(rng, size) for _ in range(count)]


def chunked(data: bytes, size: int) -> List[bytes]:
    """``data`` split into ``size``-byte chunks at byte offsets (which
    may fall mid-tag: push parsers must not care)."""
    return [data[i:i + size] for i in range(0, len(data), size)]


def tiny_document(kind: str) -> str:
    """A few hundred bytes per corpus, for set-up's first pass."""
    return {
        "shake": "<PLAY><ACT><SCENE><SPEECH><SPEAKER>A</SPEAKER>"
                 "<LINE>x</LINE></SPEECH></SCENE></ACT></PLAY>",
        "dblp": "<dblp><inproceedings><author>A</author><title>T</title>"
                "</inproceedings><article><author>B</author>"
                "<title>U</title></article></dblp>",
        "recursive": "<root><pub><year>2000</year><book id='1'>"
                     "<title>T</title></book></pub></root>",
        "feed": "<feed><item id='1'><cat>c0</cat><title>T</title>"
                "<body><para>p <name>N</name></para></body></item></feed>",
    }[kind]

"""Forged certificates, one for each rejecting guard of
``engine.verify_certificate``.

Each forgery breaks one condition. All but ``another-degree`` keep every
other condition the guards test, so switching their guard off makes
``verify_certificate`` accept them (``no-element`` fails on the missing
element instead). ``Graph.is_automorphism`` refuses an element of another
degree too, so that forgery's guard shows only in its reason.
``forgeries()`` maps each name of ``NAMES`` to (graph, group, certificate,
reason); it is built on first use and kept for the session.
"""

from __future__ import annotations

from functools import cache

from semireg import engine
from semireg.engine import Certificate, buddy_swap_automorphism, c4_buddy_structure
from semireg.families import CorpusConfig, corpus_generate, k12_m11
from semireg.graphs import cycle_graph
from semireg.group import PermGroup, PreconditionError
from semireg.perm import Permutation

# the buddy-swap step builds a swap on each of these quotients and refuses
# it, since it lies outside the group (|G| = 24, 160 and 896)
BUDDY_QUOTIENTS = ("quotient-px-p2-r3-s2", "quotient-px-p2-r5-s2", "quotient-px-p2-r7-s2")

NAMES = (
    "not-an-automorphism",
    "trivial",
    "exhausted-none-with-an-element",
    "exhausted-none-with-a-semiregular-element",
    "no-element",
    "another-degree",
    "not-semiregular",
    "outside-the-rotations",
    *(f"outside-the-group-{name}" for name in BUDDY_QUOTIENTS),
    "wrong-order",
    "wrong-cycle-length",
)


def _element_cert(graph_id, el, order=None, cycle_length=None, method="direct-search"):
    o = el.order() if el is not None else 0
    return Certificate(
        graph_id,
        el,
        o if order is None else order,
        o if cycle_length is None else cycle_length,
        method,
        (),
    )


def _buddy_swap(inst) -> Permutation:
    """The unique-buddy swap of the first normal 2-subgroup whose orbits
    carry a C4 buddy structure, as the buddy-swap step builds it."""
    for y, partition in engine._normal_quotients(inst.group):
        if not engine._is_2_group(engine.normal_closure(inst.group, [y])):
            continue
        try:
            bs = c4_buddy_structure(inst.graph, partition)
        except PreconditionError:
            continue
        if bs.buddies_per_vertex == 1:
            return buddy_swap_automorphism(inst.graph, bs)
    raise AssertionError(f"{inst.id} has no buddy swap")


@cache
def forgeries() -> dict:
    c6 = cycle_graph(6)
    rotation = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    # G_0 of D6 is generated by the reflection fixing 0 and 3
    g0_reflection = Permutation.from_cycles(6, [(1, 5), (2, 4)])
    d6 = PermGroup([rotation, g0_reflection])
    rotations = PermGroup([rotation])
    k12, m11 = k12_m11()
    # a 6-cycle that maps the edge {3, 4} onto {5, 1}, with the group it
    # generates: the certificate check takes the group's action as given
    not_aut = Permutation.from_cycles(6, [(0, 2, 4, 1, 3, 5)])
    out = {
        "not-an-automorphism": (
            c6, PermGroup([not_aut]), _element_cert("c6", not_aut), "not an automorphism"
        ),
        "trivial": (c6, d6, _element_cert("c6", Permutation.identity(6)), "element is trivial"),
        # M11 on 12 points is elusive, so only the element is wrong
        "exhausted-none-with-an-element": (
            k12, m11, _element_cert("k12", m11.generators[0], 0, 0, engine.EXHAUSTED_NONE),
            "exhausted-none certificate carries an element",
        ),
        "exhausted-none-with-a-semiregular-element": (
            c6, d6, _element_cert("c6", None, method=engine.EXHAUSTED_NONE),
            "group contains semiregular element (0 1 2 3 4 5)",
        ),
        "no-element": (
            c6, d6, _element_cert("c6", None, 6, 6), "certificate carries no element"
        ),
        # the automorphism test also refuses another degree, with its own reason
        "another-degree": (
            c6, d6, _element_cert("c6", Permutation.from_cycles(7, [tuple(range(7))])),
            "element degree does not match the graph",
        ),
        "not-semiregular": (
            c6, d6, _element_cert("c6", g0_reflection), "not semiregular"
        ),
        # the reflection through two edge midpoints moves every vertex
        "outside-the-rotations": (
            c6, rotations,
            _element_cert("c6", Permutation.from_cycles(6, [(0, 1), (2, 5), (3, 4)])),
            "element is not in the group",
        ),
        "wrong-order": (
            c6, d6, _element_cert("c6", rotation, order=3), "stated order 3 != actual 6"
        ),
        "wrong-cycle-length": (
            c6, d6, _element_cert("c6", rotation, cycle_length=3), "cycle length 3 != order 6"
        ),
    }
    cfg = CorpusConfig(
        primes=(2,),
        px_grid={2: (range(3, 8), 2)},
        include_named=False,
        include_coset_search=False,
    )
    by_id = {inst.id: inst for inst in corpus_generate(cfg)}
    for name in BUDDY_QUOTIENTS:
        inst = by_id[name]
        out[f"outside-the-group-{name}"] = (
            inst.graph, inst.group, _element_cert(name, _buddy_swap(inst)),
            "element is not in the group",
        )
    return {name: out[name] for name in NAMES}

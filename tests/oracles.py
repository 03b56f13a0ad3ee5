"""Oracles that only the tests use, kept apart from the package."""


def word(group, g):
    """g spelled out letter by letter: a generator is itself, any other
    element is each syllable w^k as |k| copies of w's word, or of its
    letter-wise inverse when k < 0; the empty list is the identity.  Its
    length grows with |k|: the tests use it as an oracle."""
    if g in group.generators():
        return [g]
    letters = []
    for w, k in group.syllables(g.payload):
        spelling = word(group, group.element(w))
        if k < 0:
            spelling = [s.inverse() for s in reversed(spelling)]
        letters += spelling * abs(k)
    return letters

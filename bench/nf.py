"""The nf-products workload: normal-form arithmetic through the public API.

Set-up builds the level-3 lamp-joined splitting of the tower for p = 2
(vertices G1, G2, G3 and W = Lamp(2,3) of order 2048) with its witness
specialisation, then its transversal tables.  Each op reduces two seeded
letter sequences with normal_form and multiplies the results with
nf_multiply.  After set-up the ops use the kernel one element at a time
and never enclose a subgroup.
"""

import random

P, LEVEL = 2, 3
POOL = 4000         # distinct input pairs per seed; ops cycle through them


def setup():
    """Build the splitting, its witness map and its transversal tables."""
    from pgog import amalgam, tower
    gog, spec = tower.joined_witness_specialisation(P, LEVEL)
    amalgam.normal_form(gog, [])        # tables are built on first use
    return gog, spec


class Inputs:
    """The seeded input pairs, made on demand so that they hold no memory.

    Pair i is a pair of letter lists: 1-8 letters, each a word of 1-3
    generators.  Vertices are drawn uniformly, so most products walk the
    whole path.
    """

    def __init__(self, gog, seed):
        self.seed = seed
        self.names = {v: list(gog.vertices[v].model.generators)
                      for v in gog.graph.vertices}
        self.vertices = list(self.names)

    def __len__(self):
        return POOL

    def __getitem__(self, i):
        from pgog.words import IDENTITY, gen
        rng = random.Random(f"{self.seed}/{i}")

        def letters():
            out = []
            for _ in range(rng.randint(1, 8)):
                v = rng.choice(self.vertices)
                word = IDENTITY
                for _ in range(rng.randint(1, 3)):
                    word = word * gen(rng.choice(self.names[v]),
                                      rng.choice((1, -1)))
                out.append((v, word))
            return out

        return letters(), letters()


def op(gog, a, b):
    # looked up on the module at each call, so that traced runs see the
    # tracer's wrappers
    from pgog import amalgam
    x = amalgam.normal_form(gog, a)
    y = amalgam.normal_form(gog, b)
    return x, y, amalgam.nf_multiply(x, y)


def compact(result):
    """An op's three reduced words as tuples of coords, for the later check."""
    return tuple((w.base_vertex, w.head.coords,
                  tuple((v, rep.coords, eid) for v, rep, eid in w.syllables))
                 for w in result)


def _letters(word):
    # (vertex, coords) of the non-identity letters of a compact reduced word
    base, head, syllables = word
    out = [(base, head)] if any(head) else []
    out.extend((v, coords) for v, coords, _ in syllables if any(coords))
    return out


class ImageCheck:
    """Pushes letters through the witness map into the finite quotient.

    The map is a homomorphism on the fundamental group, so the input
    letters and the letters of their normal form must have equal images.
    """

    def __init__(self, gog, spec):
        self.spec = spec
        self.models = {v: gog.vertices[v].model for v in gog.graph.vertices}
        self.homs = {v: spec.vertex_hom(v) for v in gog.graph.vertices}
        self._letter_images = {}
        for v, images in spec.vertex_maps.items():
            for name, image in images.items():
                self._letter_images[(v, name, 1)] = image
                self._letter_images[(v, name, -1)] = ~image
        self._element_images = {}

    def of_words(self, letters):
        image = self.spec.target.identity
        for v, word in letters:
            for name, sign in word.letters():
                image = image * self._letter_images[(v, name, sign)]
        return image

    def of_elements(self, letters):
        image = self.spec.target.identity
        for key in letters:
            hit = self._element_images.get(key)
            if hit is None:
                v, coords = key
                element = self.models[v].element(coords)
                hit = self.homs[v].apply_element(element)
                self._element_images[key] = hit
            image = image * hit
        return image

    def holds(self, a, b, result):
        """Whether a compact result has the images of the input letters."""
        x, y, z = (_letters(w) for w in result)
        ia, ib = self.of_words(a), self.of_words(b)
        return (self.of_elements(x) == ia and self.of_elements(y) == ib
                and self.of_elements(z) == ia * ib)

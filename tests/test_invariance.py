"""Every invariant is unchanged by a lattice isomorphism and by the facet order.

Each input of delzant_family(8) is held against a unimodular image of it
(tests/families.shear; in dimension 1, where no shear moves anything, the
reflection x -> 3 - x) and against the same facets listed in a random order
(families.shuffled).  Both describe the same toric manifold and the same
lattice points, so the pick, todd and signature checks give the same sides,
verdict and value at the second generic vector; face-todd gives the same
verdict and sides and the same row for each face, the face of the image
named by the images of its facets; and the volume, the lattice count and its
histogram of tight facets, each face row of the count (closed and relint),
the f-vector, the h-vector and every Chern number agree.  So does every
other output of compute: the twisted Todd and signature genera, the
localized volume, and for each facet, named by its image, the Gysin power,
the monomial n delta_i and in dimension 3 the triple product route.

The full sweep holds two more seeded shears and two more seeded shuffles of
every input against it: all the laws above on delzant_family(8), and the
laws that need no Delzant gate (the count with its face rows, the volume and
the f-vector) on weighted_family, which is simple but not Delzant.  It runs
from the repository root with

    PYTHONPATH=src python tests/test_invariance.py
"""

import random
import time

import pytest

from families import delzant_family, shear, shuffled, unimodular_transform, weighted_family
from toricpick.invariants import (check_face_todd, check_pick, check_todd,
                                  check_untwisted_signature, twisted_signature_breakdown,
                                  twisted_todd_breakdown, volume_breakdown)
from toricpick.lattice import count_points
from toricpick.localization import (chern_number, choose_generic, gysin_power, gysin_power_v3,
                                    integrate_monomial, partitions_of)
from toricpick.polytope import enumerate_vertices, face_lattice, h_vector, volume

FAMILY = delzant_family(8)


def image(name, p, how, draw=0):
    """p sheared (reflected in dimension 1) or shuffled, drawn from a
    generator seeded by the input's name and, past the first, the draw; a
    shuffle that keeps the order (one in two on an interval) is drawn again."""
    rng = random.Random(name if draw == 0 else "%s #%d" % (name, draw))
    while how == "shuffled":
        q = shuffled(p, rng)
        if q.facets != p.facets:
            return q
    return unimodular_transform(p, [[-1]], (3,)) if p.dim == 1 else shear(p, rng)


def images_of(p, q, how):
    """images[i], the position of P's facet i in its image q."""
    return [q.facets.index(f) for f in p.facets] if how == "shuffled" else range(len(p.facets))


def ungated_invariants(p, images):
    """The laws that need no Delzant gate: the volume, the count with its
    histogram and each face row, keyed by its dim and the images of its
    facets, and the f-vector."""
    fc = count_points(p)
    rows = {(d, tuple(sorted(images[i] for i in facets))): (closed, relint)
            for d, facets, closed, relint, _ in fc.face_rows()}
    return dict(volume=volume(p), count=(fc.total, fc.hist), face_rows=rows,
                f_vector=face_lattice(p).f_vector)


def invariants_of(p, images):
    """Everything the laws compare, with each face-todd row and each facet's
    values keyed by images, images[i] the position of P's facet i in the image."""
    out = ungated_invariants(p, images)
    for check in (check_pick, check_todd, check_untwisted_signature):
        r = check(p)
        out[r.identity] = (r.lhs, r.rhs, r.holds, r.breakdown["lhs_at_second_vector"])
    r = check_face_todd(p)
    rows = {}
    for key, row in r.breakdown["faces"].items():
        dim, facets = key.split("/")
        named = sorted(images[int(i)] for i in facets[len("facets("):-1].split(",") if i)
        rows["%s/facets(%s)" % (dim, ",".join(map(str, named)))] = row
    out["face-todd"] = (r.lhs, r.rhs, r.holds, rows)
    n, m = p.dim, len(p.facets)
    u = choose_generic(enumerate_vertices(p))
    out.update(h=h_vector(face_lattice(p)).h,
               chern={omega: chern_number(p, omega) for omega in partitions_of(n)},
               todd_twisted=twisted_todd_breakdown(p, terms=False)[0],
               signature_twisted=twisted_signature_breakdown(p, terms=False)[0],
               volume_localized=volume_breakdown(p)[0],
               gysin={images[i]: (gysin_power(p, i, n, u),
                                  integrate_monomial(p, [n * (j == i) for j in range(m)], u),
                                  gysin_power_v3(p, i, u) if n == 3 else None)
                      for i in range(m)})
    return out


@pytest.mark.parametrize("how", ["sheared", "shuffled"])
@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_invariants_survive_a_shear_and_a_shuffle(name, p, how):
    q = image(name, p, how)
    assert invariants_of(q, range(len(q.facets))) == invariants_of(p, images_of(p, q, how))


def test_every_image_moves_its_input():
    # a law that compares p with itself shows nothing: each shear moves a
    # normal or an offset, and each shuffle moves a facet
    for name, p in FAMILY:
        for how in ("sheared", "shuffled"):
            assert image(name, p, how).facets != p.facets, (name, how)


def test_a_facet_is_named_by_its_image():
    # keyed by position, not by image, the Hirzebruch surface's Gysin powers
    # (self-intersections 0, 1, 0 and -1) and face rows would differ from
    # those of its shuffle, so the keys do not hide a misnamed facet
    name, p = "hirzebruch", dict(FAMILY)["hirzebruch"]
    q = image(name, p, "shuffled")
    named, theirs = invariants_of(p, images_of(p, q, "shuffled")), invariants_of(q, range(4))
    unnamed = invariants_of(p, range(4))
    for law in ("gysin", "face_rows"):
        assert named[law] == theirs[law] != unnamed[law], law


if __name__ == "__main__":
    start = time.perf_counter()
    pairs = 0
    for family, laws in ((FAMILY, invariants_of),
                         (weighted_family(random.Random(37)), ungated_invariants)):
        for name, p in family:
            for how in ("sheared", "shuffled"):
                for draw in (1, 2):
                    q = image(name, p, how, draw)
                    assert q.facets != p.facets, (name, how, draw)
                    assert laws(q, range(len(q.facets))) == laws(p, images_of(p, q, how)), (
                        name, how, draw)
                    pairs += 1
    print("%d images, two shears and two shuffles of each input of delzant_family(8) and "
          "weighted_family, keep every invariant, %.1f s" % (pairs, time.perf_counter() - start))

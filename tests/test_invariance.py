"""Every invariant is unchanged by a lattice isomorphism and by the facet order.

Each input of delzant_family(8) is held against a unimodular image of it
(tests/families.shear; in dimension 1, where no shear moves anything, the
reflection x -> 3 - x) and against the same facets listed in a random order
(families.shuffled).  Both describe the same toric manifold and the same
lattice points, so the pick, todd and signature checks give the same sides,
verdict and value at the second generic vector; face-todd gives the same
verdict and sides and the same row for each face, the face of the image
named by the images of its facets; and the volume, the lattice count and its
histogram of tight facets, the h-vector and every Chern number agree.
"""

import random

import pytest

from families import delzant_family, shear, shuffled, unimodular_transform
from toricpick.invariants import (check_face_todd, check_pick, check_todd,
                                  check_untwisted_signature)
from toricpick.lattice import count_points
from toricpick.localization import chern_number, partitions_of
from toricpick.polytope import face_lattice, h_vector, volume

FAMILY = delzant_family(8)


def image(name, p, how):
    """p sheared (reflected in dimension 1) or shuffled, drawn from a
    generator seeded by the input's name; a shuffle that keeps the order
    (one in two on an interval) is drawn again."""
    rng = random.Random(name)
    while how == "shuffled":
        q = shuffled(p, rng)
        if q.facets != p.facets:
            return q
    return unimodular_transform(p, [[-1]], (3,)) if p.dim == 1 else shear(p, rng)


def invariants_of(p, images):
    """Everything the laws compare, with each face-todd row keyed by the
    images of its facets, images[i] the position of P's facet i in the image."""
    out = {}
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
    fc = count_points(p)
    out.update(volume=volume(p), count=(fc.total, fc.hist), h=h_vector(face_lattice(p)).h,
               chern={omega: chern_number(p, omega) for omega in partitions_of(p.dim)})
    return out


@pytest.mark.parametrize("how", ["sheared", "shuffled"])
@pytest.mark.parametrize("name,p", FAMILY, ids=[name for name, _ in FAMILY])
def test_invariants_survive_a_shear_and_a_shuffle(name, p, how):
    q = image(name, p, how)
    images = [q.facets.index(f) for f in p.facets] if how == "shuffled" else range(len(p.facets))
    assert invariants_of(q, range(len(q.facets))) == invariants_of(p, images)


def test_every_image_moves_its_input():
    # a law that compares p with itself shows nothing: each shear moves a
    # normal or an offset, and each shuffle moves a facet
    for name, p in FAMILY:
        for how in ("sheared", "shuffled"):
            assert image(name, p, how).facets != p.facets, (name, how)

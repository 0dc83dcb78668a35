"""Genera are ring maps: every count, genus and Chern number of P x Q from
those of P and Q.

M_{P x Q} = M_P x M_Q with the product stably complex structure, so the
lattice point count, the pick, todd and signature left sides, the volume,
the signature from the h-vector and both twisted genera multiply, the
h-polynomials multiply, and the total Chern class splits,
c_k(P x Q) = sum_{a + b = k} c_a(P) c_b(Q): c_omega[P x Q] is the sum over
the splittings omega_k = i_k + j_k with sum i = dim P of
c_{sort(i)}[P] c_{sort(j)}[Q], parts 0 dropped.  Each side is computed by
the program on its own polytope, so a law reads no weight of P x Q off P
or Q: a third check on values whose routes share one weight table (the
two Chern routes, the localized sides at one vector).

The tier-1 slice takes the pairs with dim P + dim Q <= 4.  Run as a
script, it checks every pair of delzant_family(4) members of dimension
<= 3 (so dim P + dim Q <= 6) and prints one summary line:

    PYTHONPATH=src python tests/test_ring_laws.py
"""

import sys
import time
from functools import lru_cache
from itertools import product

import pytest

from families import delzant_family, times
from toricpick.invariants import (check_pick, check_todd, check_untwisted_signature,
                                  twisted_signature_breakdown, twisted_todd_breakdown)
from toricpick.lattice import count_points
from toricpick.localization import chern_number, partitions_of
from toricpick.polytope import enumerate_vertices, h_vector, signature_from_h, volume

MEMBERS = dict((name, p) for name, p in delzant_family(4) if p.dim <= 3)
PAIRS = [(a, b) for a, b in product(MEMBERS, repeat=2)
         if MEMBERS[a].dim + MEMBERS[b].dim <= 6]
SLICE = [(a, b) for a, b in PAIRS if MEMBERS[a].dim + MEMBERS[b].dim <= 4]

MULTIPLICATIVE = {
    "count": lambda p: count_points(p).total,
    "pick": lambda p: check_pick(p).lhs,
    "todd": lambda p: check_todd(p).lhs,
    "signature": lambda p: check_untwisted_signature(p).lhs,
    "volume": volume,
    "sigma": lambda p: signature_from_h(h_vector(enumerate_vertices(p))),
    "todd-twisted": lambda p: twisted_todd_breakdown(p, terms=False)[0],
    "signature-twisted": lambda p: twisted_signature_breakdown(p, terms=False)[0],
}


def values(p):
    """Every value the laws read off p: the multiplicative ones by name, the
    h-vector as "h", and the Chern number of each partition of dim p."""
    out = {name: value(p) for name, value in MULTIPLICATIVE.items()}
    out["h"] = h_vector(enumerate_vertices(p)).h
    out["chern"] = {omega: chern_number(p, omega) for omega in partitions_of(p.dim)}
    return out


@lru_cache(maxsize=None)
def factor_values(name):
    return values(MEMBERS[name])


@lru_cache(maxsize=None)
def product_values(a, b):
    return values(times(MEMBERS[a], MEMBERS[b], name="%s x %s" % (a, b)))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def parted(parts):
    """The partition of the nonzero parts, largest first."""
    return tuple(sorted((x for x in parts if x), reverse=True))


def split_chern(omega, dim_p, chern_p, chern_q):
    """c_omega[P x Q] from the Chern numbers of P and Q by their partitions:
    each part omega_k splits as i_k + j_k, and a splitting with
    sum i = dim P adds c_{sort(i)}[P] c_{sort(j)}[Q]."""
    total = 0
    for i in product(*(range(k + 1) for k in omega)):
        if sum(i) == dim_p:
            total += chern_p[parted(i)] * chern_q[parted(map(int.__sub__, omega, i))]
    return total


def law_failures(a, b, factors=factor_values):
    """(law, expected, got) for each value of a x b that its factors'
    values, read by factors(name), do not give; and the number of values
    compared."""
    vp, vq, pq = factors(a), factors(b), product_values(a, b)
    laws = [(name, vp[name] * vq[name], pq[name]) for name in MULTIPLICATIVE]
    laws.append(("h", poly_mul(vp["h"], vq["h"]), pq["h"]))
    laws += [("chern %s" % (omega,), split_chern(omega, MEMBERS[a].dim, vp["chern"], vq["chern"]),
              value) for omega, value in pq["chern"].items()]
    return [law for law in laws if law[1] != law[2]], len(laws)


@pytest.mark.parametrize("a,b", SLICE, ids=["%s x %s" % pair for pair in SLICE])
def test_product_laws(a, b):
    failures, compared = law_failures(a, b)
    assert not failures and compared == 9 + len(partitions_of(MEMBERS[a].dim + MEMBERS[b].dim))


def test_the_members_and_pairs():
    """22 members in dimensions 1-3, so 484 pairs in the sweep and 244 in the slice."""
    assert sorted({p.dim for p in MEMBERS.values()}) == [1, 2, 3] and len(MEMBERS) == 22
    assert len(PAIRS) == 22 ** 2 and len(SLICE) == 244


def test_a_wrong_c1_squared_on_surfaces_fails():
    """Negative control: c_1^2 off by one on every surface breaks a Chern law
    on each pair of the slice with a surface factor, and nothing else."""
    def perturbed(name):
        out = factor_values(name)
        if MEMBERS[name].dim == 2:
            out = dict(out, chern=dict(out["chern"]))
            out["chern"][1, 1] += 1
        return out

    for a, b in SLICE:
        failures, _ = law_failures(a, b, perturbed)
        if 2 in (MEMBERS[a].dim, MEMBERS[b].dim):
            assert failures and all(law.startswith("chern") for law, _, _ in failures), (a, b)
        else:
            assert not failures, (a, b)


def main():
    start, compared, failed = time.perf_counter(), 0, []
    for a, b in PAIRS:
        failures, count = law_failures(a, b)
        compared += count
        failed += [(a, b) + law for law in failures]
    for row in failed:
        print("FAIL %s x %s: %s expected %s, got %s" % row)
    print("ring laws: %d of %d values agree on %d pairs of %d members, %.1f s"
          % (compared - len(failed), compared, len(PAIRS), len(MEMBERS),
             time.perf_counter() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

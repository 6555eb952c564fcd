import pytest

from xtoplat.enumeration import all_lattices_upto, all_posets_upto
from xtoplat.semiring import bni, s3, spec_space
from xtoplat.topology import build_space, is_xtop_by_unions

from .oracles import mask, subsets


@pytest.fixture(scope="session")
def posets_upto_5():
    return all_posets_upto(5)


@pytest.fixture(scope="session")
def posets_upto_6():
    return all_posets_upto(6)


@pytest.fixture(scope="session")
def lattices_upto_5():
    return all_lattices_upto(5)


@pytest.fixture(scope="session")
def lattices_upto_6():
    return all_lattices_upto(6)


@pytest.fixture(scope="session")
def lattice_spaces(lattices_upto_6):
    """Every X-top (L, X) with |L| <= 6 (429 spaces), Spec(B(n, i)) for
    n <= 14 under all/max/min (312 spaces), and Spec(S3)."""
    spaces = []
    for L in lattices_upto_6:
        for X in subsets(i for i in range(L.n) if i != L.top):
            if is_xtop_by_unions(L, mask(X)):
                spaces.append(build_space(L, mask(X)))
    for n in range(2, 15):
        for i in range(n):
            spaces.extend(spec_space(bni(n, i), which) for which in ("all", "max", "min"))
    spaces.append(spec_space(s3()))
    return spaces

from fractions import Fraction

import pytest

from diraclab import scenarios as sc

F = Fraction


@pytest.fixture(scope="session")
def pair_bundle():
    return sc.build_pair_groupoid(2, num_objects=3)


@pytest.fixture(scope="session")
def circle1():
    return sc.circle_scenario(1, F(1, 2))


@pytest.fixture(scope="session")
def torus1():
    return sc.torus_scenario([(F(3, 5), F(4, 5), 1, 0)])


@pytest.fixture(scope="session")
def reduction1():
    return sc.circle_reduction(1, F(1, 2))


@pytest.fixture(scope="session")
def reduction2():
    return sc.circle_reduction(2, F(1, 2))


@pytest.fixture(scope="session")
def strong2(reduction2):
    from diraclab.intersection import strong_intersection
    red = reduction2
    return strong_intersection(red.orbit, red.scn.datum,
                               list(red.obj_pairs), list(red.arrow_pairs))

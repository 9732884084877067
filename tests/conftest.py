import pytest

from baerkit.verify import (
    build_class3_p_group,
    build_class4_2group,
    build_group,
    default_corpus,
    dihedral_presentation,
    quaternion_presentation,
    symmetric_presentation,
)


@pytest.fixture(scope="session")
def s3():
    return build_group(symmetric_presentation(3), name="S3")


@pytest.fixture(scope="session")
def s4():
    return build_group(symmetric_presentation(4), name="S4")


@pytest.fixture(scope="session")
def q8():
    return build_group(quaternion_presentation(), name="Q8")


@pytest.fixture(scope="session")
def d8():
    return build_group(dihedral_presentation(8), name="D8")


@pytest.fixture(scope="session")
def d16():
    return build_group(dihedral_presentation(16), name="D16")


@pytest.fixture(scope="session")
def class4_group():
    return build_class4_2group()


@pytest.fixture(scope="session")
def class3_p2():
    return build_class3_p_group(2)


@pytest.fixture(scope="session")
def class3_p3():
    return build_class3_p_group(3)


@pytest.fixture(scope="session")
def class3_p5():
    return build_class3_p_group(5)


@pytest.fixture(scope="session")
def corpus_groups(class4_group, class3_p2, class3_p3, class3_p5):
    """The default corpus built once, as (name, group) in report order.
    The benchmark groups are the session's own fixtures, not rebuilt."""
    built = {g.meta["name"]: g
             for g in (class4_group, class3_p2, class3_p3, class3_p5)}
    return [(entry.name, built.get(entry.name) or entry.build())
            for entry in default_corpus()]

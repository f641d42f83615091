"""The package's public name list."""

import phenotopics


def test_all_is_sorted_and_unique():
    assert phenotopics.__all__ == sorted(set(phenotopics.__all__))


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from phenotopics import *", namespace)
    assert set(phenotopics.__all__) <= set(namespace)

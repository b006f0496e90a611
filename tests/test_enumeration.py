import pytest

from kauffman import (
    CIRCLE,
    Block,
    Diagram,
    DomainError,
    JonesNF,
    Term,
    delta,
    enumerate_normal_forms,
    enumerate_pairings,
    enumerate_terms,
    nf_to_term,
)

from kauffman.enumeration import count_pairings

from helpers import brute_force_pairings, identity


def test_pairing_counts_are_catalan():
    assert [len(list(enumerate_pairings(n))) for n in range(1, 6)] == [1, 2, 5, 14, 42]


def test_pairings_n2_are_identity_and_diapsis():
    assert list(enumerate_pairings(2)) == [
        Diagram(2, ((-2, -1), (1, 2))),
        Diagram(2, ((-2, 2), (-1, 1))),
    ]


def test_pairings_n1():
    assert list(enumerate_pairings(1)) == [identity(1)]


def test_pairings_come_out_sorted_and_circle_free():
    for n in range(1, 6):
        pool = list(enumerate_pairings(n))
        assert pool == sorted(pool, key=lambda d: d.pairs)
        assert all(d.circles == 0 for d in pool)
        assert len(set(pool)) == len(pool)


def test_pairings_match_the_brute_force_search_up_to_seven():
    # the library order against the independent search over every perfect matching
    for n in range(1, 8):
        assert list(enumerate_pairings(n)) == brute_force_pairings(n)


def test_enumerate_terms_order_and_counts():
    first = list(enumerate_terms(3, 1))
    assert first == [
        Term(3),
        Term(3, (Block(1, 1),)),
        Term(3, (Block(2, 2),)),
        Term(3, (CIRCLE,)),
    ]
    assert len(list(enumerate_terms(3, 2))) == 13
    assert list(enumerate_terms(2, 0)) == [Term(2)]


def test_enumerate_normal_forms_small():
    forms = list(enumerate_normal_forms(2, 1))
    assert set(forms) == {
        JonesNF(2), JonesNF(2, 0, ((1, 1),)),
        JonesNF(2, 1), JonesNF(2, 1, ((1, 1),)),
    }
    assert len(forms) == 4


def test_enumerate_normal_forms_come_out_sorted():
    for n in range(2, 9):
        for max_circles in range(3):
            forms = list(enumerate_normal_forms(n, max_circles))
            assert forms == sorted(forms, key=lambda f: (f.circles, f.blocks))


def test_circle_free_normal_forms_count_matches_pairings():
    for n in range(2, 6):
        assert len(list(enumerate_normal_forms(n, 0))) == len(list(enumerate_pairings(n)))


def test_normal_form_map_is_onto_circle_free_diagrams():
    for n in range(2, 6):
        image = {delta(nf_to_term(f)) for f in enumerate_normal_forms(n, 0)}
        assert image == set(enumerate_pairings(n))


def test_normal_form_map_is_injective_with_circles():
    for n in range(2, 6):
        forms = list(enumerate_normal_forms(n, 2))
        assert len({delta(nf_to_term(f)) for f in forms}) == len(forms)


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(DomainError):
        enumerate_pairings(0)
    with pytest.raises(DomainError):
        list(enumerate_terms(1, 3))
    with pytest.raises(DomainError):
        list(enumerate_terms(3, -1))
    with pytest.raises(DomainError):
        enumerate_normal_forms(3, -1)


def test_enumerate_normal_forms_streams_and_raises_at_the_call():
    forms = enumerate_normal_forms(3, 1)
    assert iter(forms) is forms
    assert next(forms) == JonesNF(3)
    with pytest.raises(DomainError):
        enumerate_normal_forms(1, 0)
    with pytest.raises(DomainError):
        enumerate_normal_forms(3, -1)


def test_enumerate_terms_raises_at_the_call():
    with pytest.raises(DomainError):
        enumerate_terms(3, -1)
    with pytest.raises(DomainError):
        enumerate_terms(1, 3)


def test_enumerations_over_the_size_limit_raise_at_the_call():
    # 1 + 316 + 316^2 = 100173 words; Catalan(12) = 208012; 2 * Catalan(11) = 117572
    for call in (lambda: enumerate_terms(316, 2), lambda: enumerate_pairings(12),
                 lambda: count_pairings(12), lambda: enumerate_normal_forms(11, 1)):
        with pytest.raises(DomainError, match="more than 100000"):
            call()
    # the empty word alone, whatever n is
    assert list(enumerate_terms(10**18, 0)) == [Term(10**18)]
    assert sum(1 for _ in enumerate_terms(315, 2)) == 1 + 315 + 315**2

import ast
import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given

import kauffman
from kauffman import (
    CIRCLE,
    Block,
    Circle,
    DomainError,
    JonesNF,
    Measure,
    Term,
    enumerate_normal_forms,
    enumerate_pairings,
    enumerate_terms,
    make_block,
    measure_word,
    nf_to_term,
    parse,
)
from kauffman.enumeration import count_pairings

from helpers import expand, normal_forms_st, terms_st


def test_make_block_expands_to_descending_diapsides():
    t = Term(4, (make_block(4, 3, 1),))
    assert expand(t).word == (Block(3, 3), Block(2, 2), Block(1, 1))


def test_make_block_singular_is_diapsis():
    assert make_block(2, 1, 1) == Block(1, 1)


def test_make_block_rejects_inverted_indices():
    with pytest.raises(DomainError):
        make_block(4, 1, 3)


@pytest.mark.parametrize("n, b, a", [(4, 4, 1), (4, 1, 0), (1, 1, 1), (5, 5, 5)])
def test_make_block_rejects_out_of_range(n, b, a):
    with pytest.raises(DomainError):
        make_block(n, b, a)


def test_term_validates_blocks_against_size():
    with pytest.raises(DomainError):
        Term(3, (Block(3, 3),))
    shared = Block(1, 1)  # checked once however often it occurs; a later block still is
    with pytest.raises(DomainError, match="must be <= n-1 = 2, got 3"):
        Term(3, (shared, CIRCLE, shared, shared, Block(3, 3), shared))
    with pytest.raises(DomainError):
        Term(1, ())


@pytest.mark.parametrize("build", [
    lambda: Term(3, (Block(True, True), Block(1.5, 1))),
    lambda: Term(3, (Block(1.5, 1),)),
    lambda: Term(3, (Block("2", 1),)),
    lambda: Term(3.0),
    lambda: JonesNF(3, True),
    lambda: JonesNF(3, 1.0),
    lambda: JonesNF(3.0, 0, ((2.0, 1),)),
    lambda: JonesNF(3, 0, ((2, 1.0),)),
    lambda: JonesNF("3"),
    lambda: Term(3, ("h1",)),
    lambda: Term(3, None),
    lambda: JonesNF(3, 0, None),
    lambda: JonesNF(3, 0, 5),
    lambda: parse(None, 3),
    lambda: parse(b"h1", 3),
], ids=["bool-and-float-index", "float-index", "str-index", "float-size",
        "bool-circles", "float-circles", "float-size-and-index", "float-nf-index",
        "str-nf-size", "str-factor", "None-word", "None-nf-blocks", "int-nf-blocks",
        "None-text", "bytes-text"])
def test_sizes_circles_and_indices_must_be_integers(build):
    with pytest.raises(DomainError):
        build()


# Every size or count argument of the library, as a call of that one argument.
INT_ARGUMENTS = {
    "parse-n": lambda v: parse("h1", v),
    "Term-n": lambda v: Term(v),
    "JonesNF-n": lambda v: JonesNF(v),
    "JonesNF-circles": lambda v: JonesNF(3, v),
    "enumerate_terms-n": lambda v: enumerate_terms(v, 2),
    "enumerate_terms-max_len": lambda v: enumerate_terms(3, v),
    "enumerate_normal_forms-n": lambda v: enumerate_normal_forms(v, 1),
    "enumerate_normal_forms-max_circles": lambda v: enumerate_normal_forms(3, v),
    "enumerate_pairings-n": lambda v: enumerate_pairings(v),
    "count_pairings-n": lambda v: count_pairings(v),
}


@pytest.mark.parametrize("value", ["5", 2.5, None, True], ids=["str", "float", "None", "bool"])
@pytest.mark.parametrize("call", INT_ARGUMENTS.values(), ids=INT_ARGUMENTS.keys())
def test_size_and_count_arguments_refuse_non_integers(call, value):
    with pytest.raises(DomainError, match=f"must be an integer, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("call, message", [
    (lambda: parse("1", 1), "monoid size must be >= 2, got 1"),
    (lambda: Term(0), "monoid size must be >= 2, got 0"),
    (lambda: JonesNF(3, -1), "circle count must be >= 0, got -1"),
    (lambda: enumerate_terms(1, 3), "monoid size must be >= 2, got 1"),
    (lambda: enumerate_terms(3, -5), "term length bound must be >= 0, got -5"),
    (lambda: enumerate_normal_forms(3, -1), "circle bound must be >= 0, got -1"),
    (lambda: enumerate_pairings(0), "diagram size must be >= 1, got 0"),
    (lambda: count_pairings(-2), "diagram size must be >= 1, got -2"),
])
def test_integer_arguments_out_of_range_keep_their_messages(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_expand_unit_and_singulars():
    assert expand(Term(5)).word == ()
    t = Term(3, (CIRCLE, Block(2, 2)))
    assert expand(t) == t


def test_measure_of_single_block():
    # weight of h^[2,1] is 2 - 1 + 2 = 3, nothing to its right
    assert measure_word((Block(2, 1),)) == Measure(3, 0)


def test_measure_of_unit():
    assert measure_word(()) == Measure(0, 0)


def test_measure_counts_blocks_left_of_circles():
    # one block of weight 2; the circle has one block on its left
    assert measure_word((Block(1, 1), CIRCLE)) == Measure(2, 1)


def test_measure_mixed_word():
    # h2 h1 c h3: weights 2+2+2; h2 dominates h1; the circle follows two blocks
    t = Term(4, (Block(2, 2), Block(1, 1), CIRCLE, Block(3, 3)))
    assert measure_word(t.word) == Measure(6, 3)


def test_measure_orders_lexicographically():
    assert Measure(1, 99) < Measure(2, 0)
    assert Measure(2, 0) < Measure(2, 1)


@given(terms_st())
def test_measure_positive_on_block_words(t):
    n1, _ = measure_word(t.word)
    if any(isinstance(g, Block) for g in t.word):
        assert n1 > 0
    elif not t.word:
        assert measure_word(t.word) == Measure(0, 0)


def test_nf_to_term_worked_example():
    f = JonesNF(11, 6, ((3, 1), (4, 4), (7, 7), (9, 8), (10, 9)))
    t = nf_to_term(f)
    assert t.word == (
        CIRCLE, CIRCLE, CIRCLE, CIRCLE, CIRCLE, CIRCLE,
        Block(3, 1), Block(4, 4), Block(7, 7), Block(9, 8), Block(10, 9),
    )


def test_nf_to_term_unit_and_pure_circles():
    assert nf_to_term(JonesNF(5)).word == ()
    assert nf_to_term(JonesNF(3, 2)).word == (CIRCLE, CIRCLE)


@pytest.mark.parametrize("blocks", [
    ((2, 1), (2, 2)),   # upper indices not strictly increasing
    ((1, 1), (3, 1)),   # lower indices not strictly increasing
    ((3, 1), (2, 2)),   # decreasing uppers
])
def test_jones_nf_rejects_non_increasing_blocks(blocks):
    with pytest.raises(DomainError):
        JonesNF(5, 0, blocks)


def test_jones_nf_rejects_negative_circles():
    with pytest.raises(DomainError):
        JonesNF(3, -1)


def test_jones_nf_refuses_a_block_of_three_items():
    with pytest.raises(DomainError):
        JonesNF(4, 0, ((3, 2, 1),))


def test_jones_nf_refuses_a_block_that_is_not_a_pair():
    with pytest.raises(DomainError):
        JonesNF(4, 0, (3,))


@pytest.mark.parametrize("blocks, message", [
    ([(5, 1), "x"], "upper block index must be <= n-1 = 2, got 5"),
    ([(2, 1), (1, 1), 7], "lower indices must increase strictly: 1 then 1"),
])
def test_jones_nf_reports_the_first_fault_in_list_order(blocks, message):
    # one pass over the blocks: a later non-pair does not mask an earlier fault
    with pytest.raises(DomainError) as err:
        JonesNF(3, 0, blocks)
    assert str(err.value) == message


def test_jones_nf_keeps_a_block_it_is_given_and_wraps_a_pair():
    given_block = Block(1, 1)
    f = JonesNF(4, 0, [given_block, (3, 2)])
    assert f.blocks[0] is given_block and type(f.blocks[1]) is Block


def _jones_nf_calls(tree):
    return sum(isinstance(node, ast.Call) and "JonesNF" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None))
               for node in ast.walk(tree))


def test_only_rewrite_pack_builds_a_normal_form():
    """Every normal form the library computes goes through `rewrite._pack`,
    so a refusal is always an internal error."""
    package = Path(kauffman.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    calls = {name: _jones_nf_calls(tree) for name, tree in trees.items()}
    pack, = (node for node in ast.walk(trees["rewrite.py"])
             if isinstance(node, ast.FunctionDef) and node.name == "_pack")
    assert {name: k for name, k in calls.items() if k} == {"rewrite.py": 1}
    assert _jones_nf_calls(pack) == 1


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))])
@pytest.mark.parametrize("value", [
    Block(3, 2), Term(4, (Block(3, 2), CIRCLE, Block(1, 1))), JonesNF(4, 2, ((1, 1), (3, 2)))])
def test_blocks_terms_and_normal_forms_copy_and_pickle_as_values(duplicate, value):
    twin = duplicate(value)
    assert twin == value and type(twin) is type(value)
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("index", ["upper", "lower"])
def test_a_block_prints_its_indices_by_name_and_refuses_new_ones(index):
    block = Block(3, 2)
    assert repr(block) == "Block(upper=3, lower=2)"
    with pytest.raises(AttributeError):
        setattr(block, index, 1)
    assert block == Block(3, 2) and block.text == "h[3,2]"


def test_a_plain_pair_in_a_word_is_not_a_generator():
    with pytest.raises(DomainError, match="not a generator"):
        Term(4, (Block(1, 1), (2, 1)))


def test_a_normal_form_holds_blocks_given_blocks_or_pairs():
    """A block is its (upper, lower) pair, and a normal form's blocks are
    `Block`s however they were given."""
    assert Block(3, 2) == (3, 2) and hash(Block(3, 2)) == hash((3, 2))
    from_pairs, from_lists = JonesNF(5, 1, ((1, 1), (4, 2))), JonesNF(5, 1, [[1, 1], [4, 2]])
    from_blocks = JonesNF(5, 1, (Block(1, 1), Block(4, 2)))
    assert from_pairs == from_lists == from_blocks
    for f in (from_pairs, from_lists, from_blocks):
        assert [type(g) for g in f.blocks] == [Block, Block]
        assert nf_to_term(f).word == (CIRCLE, Block(1, 1), Block(4, 2))


@given(normal_forms_st())
def test_expanded_normal_forms_interleave_neighbouring_indices(f):
    # between two occurrences of the diapsis index i there is an i+1 and an i-1
    word = expand(nf_to_term(f)).word
    indices = [g.upper for g in word if isinstance(g, Block)]
    for i in set(indices):
        positions = [p for p, v in enumerate(indices) if v == i]
        for lo, hi in zip(positions, positions[1:]):
            between = set(indices[lo + 1:hi])
            assert i + 1 in between and i - 1 in between


def measure_by_definition(word):
    """The docstring's definition of the measure, written out as plain loops."""
    blocks = [g for g in word if isinstance(g, Block)]
    n1 = sum(g.upper - g.lower + 2 for g in blocks)
    n2 = 0
    for p in range(len(blocks)):
        for q in range(p + 1, len(blocks)):
            if blocks[p].upper >= blocks[q].upper or blocks[p].lower >= blocks[q].lower:
                n2 += 1
    for p, g in enumerate(word):
        if isinstance(g, Circle):
            n2 += sum(isinstance(h, Block) for h in word[:p])
    return Measure(n1, n2)


@given(terms_st(max_n=8, max_len=12))
def test_measure_word_matches_its_definition(t):
    assert measure_word(t.word) == measure_by_definition(t.word)

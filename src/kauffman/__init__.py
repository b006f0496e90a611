"""Kauffman (Temperley-Lieb) monoids K_n.

Terms over diapsides, blocks and circles reduce to a unique Jones normal
form by a strongly normalizing rewrite system; the same monoid is realized
by planar n-diagrams under stacking composition.  The package provides
both sides, the translations between them, a decision procedure for the
word problem, enumeration of small pairings, terms and normal forms, and
SVG/ASCII drawings.
"""

from .diagrams import (
    Diagram,
    compose,
    from_json_dict,
    slope_points,
    span,
    to_json_dict,
)
from .draw import render
from .enumeration import (
    enumerate_normal_forms,
    enumerate_pairings,
    enumerate_terms,
)
from .rewrite import (
    ConsistencyError,
    NormalizationTrace,
    RewriteStep,
    format_step,
    normal_form,
    normalize,
    rewrite_steps,
)
from .semantics import (
    decide_equal,
    decide_nf,
    delta,
    diagram_to_nf,
    nf_by_diagram,
    peel,
)
from .syntax import ParseError, format_term, format_word, parse
from .terms import (
    CIRCLE,
    Block,
    Circle,
    DomainError,
    Generator,
    JonesNF,
    Measure,
    Term,
    make_block,
    measure_word,
    nf_to_term,
)

__version__ = "0.1.0"

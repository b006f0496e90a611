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
    diapsis_diagram,
    from_json_dict,
    identity,
    is_planar_pairing,
    slope_points,
    span,
    to_json_dict,
)
from .draw import canvas_height, render, render_ascii, render_svg
from .enumeration import (
    enumerate_normal_forms,
    enumerate_pairings,
    enumerate_terms,
    pairing_to_parenword,
    parenword_to_pairing,
)
from .rewrite import (
    STRATEGIES,
    ConsistencyError,
    NormalizationTrace,
    RewriteStep,
    apply_rule,
    find_redex,
    format_step,
    normal_form,
    normalize,
)
from .semantics import (
    decide_equal,
    decide_nf,
    delta,
    delta_block,
    diagram_to_nf,
    nf_by_diagram,
    peel,
    peel_steps,
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
    block_weight,
    expand,
    make_block,
    measure_word,
    nf_to_term,
)

__version__ = "0.1.0"

"""Stable embeddedness toolkit for ordered abelian groups.

Groups are presented over a coloured chain of archimedean positions
(the spine), each position carrying a rank-1 shape (its rib); the
package computes natural and mod-m valuations, pseudo-Cauchy structure,
best approximations across group pairs with their defining schemes, and
classification verdicts, with a JSON codec and a command line on top.
"""

__version__ = "0.1.0"

from .approx import (ApproxSample, BestApproximation, Scheme, best_approx,
                     decompose_val, scheme_cases, scheme_cong, scheme_eqk,
                     scheme_eval, scheme_formula, scheme_sign)
from .catalogue import GROUPS, PAIRS, builtin_group, builtin_pair
from .chain import (ALL, INF, NONE, ChainSEReport, ChainSpec, ColourRule, Cut,
                    CutClass, CutKind, CutStatus, Position, SegKind, Segment,
                    chain_stably_embedded, classify_cut, cut_classes,
                    dense_complete, dense_q, fin, integers, omega, omega_star,
                    ordered_sum)
from .classify import (Reason, Status, Verdict, classify_frr, classify_main,
                       classify_pair, frr_classes)
from .codec import (dumps, group_from_data, group_to_data, load_group,
                    load_pair, pair_from_data, pair_to_data, to_jsonable)
from .errors import (ElementInG, FormulaSyntaxError, GuardGap,
                     LiftObstruction, NotFRRError, NotPseudoCauchy,
                     NotRepresentable, OagError, PositionOutOfDomain,
                     PresentationError, TooShort, UnboundVariable)
from .formula import (And, Bool, CongBullet, CongM, EqBullet, Gt0, Not, Or,
                      Term, ValCmp, element_text, eval_formula, eval_term,
                      formula_text, make_term, parse_element, parse_formula,
                      spine_value_text, term_text)
from .group import (Element, Generator, GroupSpec, PairSpec, RibEntry,
                    SchematicRib, SegmentLayout, ZERO_ELEMENT)
from .pseudo import (ImmediateReport, Ladder, NoMaximum, PseudoSequence,
                     TruncationRule, hahn_pseudo_limit, immediate_ext_check,
                     is_pseudo_cauchy, is_pseudo_limit, lift_mod_m)
from .rib import (OMEGA_UNIT, RIB_ONE, RIB_ZERO, RibElement, RibSpec, q_rib,
                  r_proxy_rib, rib_contains, rib_divides, rib_elem_equiv,
                  rib_min_positive, rib_pair_stably_embedded, rib_residue,
                  rib_stably_embedded, script_z_rib, window_rib, z_local_rib,
                  z_rib)
from .valuation import (HypothesisResult, SpineValue, SpineValueKind, SV_INF,
                        ValueSet, check_m, check_ur, compare_spine_values,
                        lead_m, pred_cong_bullet, pred_eq_bullet,
                        regular_spine, relevant_primes, spine_m, sv_limit,
                        sv_pos, val_m, value_set_contains)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Enumeration of permutations avoiding generalized patterns.

Pattern parsing and matching, rightward generating trees with label
succession rules, exact generating-function expansion and verification, and
lattice-path bijections, with a command-line front end.
"""

from .patterns import (GeneralizedPattern, PatternSyntaxError, avoids, parse_pattern,
                       parse_pattern_set)
from .perms import append_child, format_perm, parse_perm, reduce_to_perm, statistic
from .enumerate import count_brute, count_tree, closure_check
from .rules import (CLASS_IDS, REGISTRY, RefinedCount, count_by_rule,
                    refined_by_rule, verify_rule)
from .closed_forms import closed_form, formula_value, verify_identity

__version__ = "0.1.0"

__all__ = [
    "GeneralizedPattern", "PatternSyntaxError",
    "avoids", "parse_pattern", "parse_pattern_set",
    "append_child", "format_perm", "parse_perm", "reduce_to_perm", "statistic",
    "count_brute", "count_tree", "closure_check", "CLASS_IDS", "REGISTRY",
    "RefinedCount", "count_by_rule", "refined_by_rule", "verify_rule",
    "closed_form", "formula_value", "verify_identity",
    "__version__",
]

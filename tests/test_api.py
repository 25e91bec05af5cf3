"""The public API: every exported name resolves, and one batch contract.

A stale ``__all__`` entry fails here rather than in a user's ``import *``;
level differences enter the estimator only as a ``delta_batch``, so no
module defines a per-draw generator factory again; and schedules are their
formulas, checked by one finite-work rule, so none of the bump, the second
schedule cache, the arithmetic-only law check or the distance wrapper
returns.
"""

import importlib
import pkgutil

import ubmc


def test_exports_resolve_and_no_per_draw_generators():
    modules = [ubmc] + [
        importlib.import_module(f"ubmc.{info.name}") for info in pkgutil.iter_modules(ubmc.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
        per_draw = [
            name for name in vars(module)
            if name in ("LevelDifferenceGenerator", "_per_lane") or name.endswith("_generator")
        ]
        assert not per_draw, f"{module.__name__} defines {per_draw}"
        deleted = [
            name for name in vars(module)
            if name in ("strictly_increasing", "_checked_prefix", "_arithmetic_survival", "DistanceLike")
        ]
        assert not deleted, f"{module.__name__} defines {deleted}"

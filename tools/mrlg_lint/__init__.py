"""mrlg_lint: static checks for the mrlg library sources.

Two rule families share one framework (findings, suppressions, baseline,
reporting — see framework.py):

  determinism  line-level lint rejecting ambient nondeterminism
  effects      whole-program phase-effect analysis proving the plan
               phase of the region-parallel pipeline read-only

Entry point: tools/mrlg_lint.py {effects|determinism|all}.
"""

__all__ = ["framework", "cpp_model", "effects", "determinism"]

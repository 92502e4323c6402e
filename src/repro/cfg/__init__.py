"""Control-flow graph analyses: orders, dominance, loops, frequencies, edges."""

from repro.cfg.traversal import depth_first_order, reverse_postorder, postorder, reachable_blocks
from repro.cfg.dominance import DominatorTree, dominance_frontiers
from repro.cfg.loops import LoopInfo, natural_loops, loop_nesting_depths
from repro.cfg.frequency import estimate_block_frequencies
from repro.cfg.critical_edges import critical_edges, split_critical_edges

__all__ = [
    "depth_first_order",
    "reverse_postorder",
    "postorder",
    "reachable_blocks",
    "DominatorTree",
    "dominance_frontiers",
    "LoopInfo",
    "natural_loops",
    "loop_nesting_depths",
    "estimate_block_frequencies",
    "critical_edges",
    "split_critical_edges",
]

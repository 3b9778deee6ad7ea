// Levelization: SCC condensation + topological leveling of a parsed netlist.
//
// The level of a node is the length of the longest purely-combinational path
// from any source (input / const / reg output) to it: sources sit at level 0,
// a gate reading only sources at level 1, and so on. Evaluating nodes in
// level-major order is a correct evaluation schedule for any acyclic netlist,
// and — unlike an arbitrary topological order — the schedule is *canonical*:
// it depends only on the graph, not on traversal order, hash seeds, or thread
// count. That determinism is what lets the interpreter's eval order, the
// `g5r netlistc` compiled backend, and `g5r lint --dump-levels` all agree
// byte-for-byte.
//
// Cycles are handled by SCC condensation (iterative Tarjan): every member of
// a non-trivial strongly connected component is marked cyclic, pinned at
// level 0, and excluded from the schedule; nodes downstream of a cycle are
// still levelized so analysis keeps working on broken inputs. Strictly
// elaborated netlists are acyclic, so `order` covers every combinational
// node there.
#pragma once

#include <cstddef>
#include <vector>

#include "rtl/netlist_graph.hh"

namespace g5r::rtl::analysis {

/// Combinational fan-out adjacency over @p g: edge s -> c for every
/// combinational node c reading s. A register's data input is a sequential
/// edge (cut by the clock) and is deliberately absent.
std::vector<std::vector<int>> combFanout(const NetlistGraph& g);

/// Strongly connected components of @p adjacency (iterative Tarjan).
/// Each component's members are sorted ascending; components are ordered by
/// their smallest member, so the result is deterministic.
std::vector<std::vector<int>> stronglyConnectedComponents(
    const std::vector<std::vector<int>>& adjacency);

struct LevelSchedule {
    /// Per node: its combinational level. Sources (and cycle members, which
    /// have no finite level) are level 0.
    std::vector<int> levelOf;

    /// levels[L] = node indices at level L, ascending. Level 0 holds the
    /// sources (and any cycle members); levels 1.. hold combinational nodes.
    std::vector<std::vector<int>> levels;

    /// The evaluation schedule: every acyclic combinational node, level-major
    /// then index-minor. The interpreter's eval() walks it and codegen emits
    /// it.
    std::vector<int> order;

    /// Combinational nodes on a combinational cycle (members of a
    /// non-trivial SCC), ascending. Empty for every elaborable netlist.
    std::vector<int> cyclic;

    /// Non-trivial SCCs (size > 1 or a self-edge), from
    /// stronglyConnectedComponents() ordering.
    std::vector<std::vector<int>> cyclicSccs;

    /// Longest combinational path length == highest level in use.
    unsigned depth() const {
        return levels.empty() ? 0 : static_cast<unsigned>(levels.size() - 1);
    }

    bool acyclic() const { return cyclic.empty(); }
};

/// Compute the canonical level schedule of @p g. Pure and deterministic:
/// equal graphs produce equal schedules on every run, host, and job count.
LevelSchedule levelize(const NetlistGraph& g);

}  // namespace g5r::rtl::analysis

// Flow checkpoints (format "compsyn-checkpoint-v2"): a snapshot of the
// default run at one of resynthesize()'s pass boundaries. It holds the
// circuit and spec, the ticks consumed, the irredundant start, the netlist
// exactly as it is in memory (node ids, types, fanins, names, the output
// order and the dead set, so fanouts() and topo_order() rebuild the same),
// the pass stats so far, and the report's spans, counters and
// distributions. One FNV-1a hash covers it all, and a node graph that is
// no netlist (an out-of-range fanin, a cycle) is refused. DESIGN.md §10.
#pragma once

#include <cstdint>
#include <string>

#include "flow/flow.hpp"
#include "netlist/netlist.hpp"

namespace compsyn {

struct FlowCheckpoint {
  // What ran: a resume refuses anything else, since the continuation would
  // then match no uninterrupted run.
  std::string circuit;  // as given on the command line
  FlowSpec spec;
  // Where it stood.
  std::uint64_t ticks = 0;    // budget ticks consumed
  Netlist original;           // the irredundant start, verified against
  Netlist netlist;            // the netlist at the pass boundary
  ResynthStats stats;         // the boundary's stats so far
  Json obs = Json::object();  // obs_snapshot_json() at the boundary

  Json to_json() const;
  /// False, with *error, for a wrong format or hash, a missing or ill-typed
  /// field, or a snapshot that is no netlist; *this is then left alone.
  bool from_json(const Json& j, std::string* error);

  /// Writes atomically (temp file + rename), then runs the write-failure and
  /// halt injection hooks. False, with *error, on I/O failure.
  bool save(const std::string& path, std::string* error) const;
  /// Reads and validates as from_json() does.
  bool load(const std::string& path, std::string* error);
};

}  // namespace compsyn

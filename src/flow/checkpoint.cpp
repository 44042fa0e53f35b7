#include "flow/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/events.hpp"
#include "paths/paths.hpp"
#include "robust/inject.hpp"
#include "robust/robust.hpp"

namespace compsyn {
namespace {

constexpr const char* kFormat = "compsyn-checkpoint-v2";

/// The member `key` of `o`, or null when there is none.
const Json& field(const Json& o, const char* key) {
  static const Json kNull;
  const Json* v = o.find(key);
  return v != nullptr ? *v : kNull;
}

Json ids_json(const std::vector<NodeId>& ids) {
  Json j = Json::array();
  for (NodeId id : ids) j.push(static_cast<std::uint64_t>(id));
  return j;
}

std::vector<NodeId> ids_from(const Json& j) {
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < j.size(); ++i) {
    ids.push_back(static_cast<NodeId>(j.at(i).as_u64()));
  }
  return ids;
}

// A node is [type, fanins, name, dead].
Json netlist_json(const Netlist& nl) {
  Json nodes = Json::array();
  for (NodeId id = 0; id < nl.size(); ++id) {
    const Node& n = nl.node(id);
    Json rec = Json::array();
    rec.push(static_cast<std::uint64_t>(n.type));
    rec.push(ids_json(n.fanins));
    rec.push(n.name);
    rec.push(n.dead);
    nodes.push(std::move(rec));
  }
  Json j = Json::object();
  j.set("name", nl.name());
  j.set("nodes", std::move(nodes));
  j.set("outputs", ids_json(nl.outputs()));
  return j;
}

/// Rebuilds a netlist_json() snapshot; false, with *error, when its node
/// graph is no netlist.
bool netlist_from(const Json& j, Netlist* out, std::string* error) {
  const Json& nodes = field(j, "nodes");
  std::vector<Node> parts(nodes.size());
  for (std::size_t id = 0; id < parts.size(); ++id) {
    const Json& rec = nodes.at(id);
    if (rec.size() != 4 ||
        rec.at(0).as_u64() > static_cast<std::uint64_t>(GateType::Xnor)) {
      *error = "node " + std::to_string(id) + " is not [type, fanins, name, dead]";
      return false;
    }
    parts[id] = {static_cast<GateType>(rec.at(0).as_u64()), false,
                 rec.at(3).as_bool(), ids_from(rec.at(1)), rec.at(2).as_string()};
  }
  Netlist nl(field(j, "name").as_string());
  if (!nl.assign_nodes(std::move(parts), ids_from(field(j, "outputs")), error)) {
    return false;
  }
  *out = std::move(nl);
  return true;
}

// A boundary's stats hold one history record per pass, so the pass and
// replacement totals are not written: they are sums over the records.
Json stats_json(const ResynthStats& st) {
  Json j = Json::object();
  j.set("gates_before", st.gates_before);
  j.set("paths_before", st.paths_before);
  j.set("cones_considered", st.cones_considered);
  j.set("comparison_cones", st.comparison_cones);
  Json history = Json::array();
  for (const ResynthPassRecord& pr : st.history) {
    history.push(pass_record_json(pr));
  }
  j.set("history", std::move(history));
  return j;
}

ResynthStats stats_from(const Json& j) {
  ResynthStats st;
  st.gates_before = field(j, "gates_before").as_u64();
  st.paths_before = field(j, "paths_before").as_u64();
  st.cones_considered = field(j, "cones_considered").as_u64();
  st.comparison_cones = field(j, "comparison_cones").as_u64();
  const Json& history = field(j, "history");
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Json& rec = history.at(i);
    const Json& paths = field(rec, "paths");  // a string once saturated
    st.history.push_back({static_cast<unsigned>(field(rec, "pass").as_u64()),
                          field(rec, "replacements").as_u64(),
                          field(rec, "gates").as_u64(),
                          paths.type() == Json::Type::String ? kPathCountSaturated
                                                             : paths.as_u64()});
    ++st.passes;
    st.replacements += st.history.back().replacements;
  }
  return st;
}

}  // namespace

Json FlowCheckpoint::to_json() const {
  Json state = Json::object();
  state.set("circuit", circuit);
  Json spec_json = Json::object();
  spec.write_json(spec_json);
  state.set("spec", std::move(spec_json));
  state.set("ticks", ticks);
  state.set("stats", stats_json(stats));
  state.set("original", netlist_json(original));
  state.set("netlist", netlist_json(netlist));
  state.set("obs", obs);
  Json j = Json::object();
  j.set("format", kFormat);
  j.set("hash", robust::fnv1a64(state.dump()));
  j.set("state", std::move(state));
  return j;
}

bool FlowCheckpoint::from_json(const Json& j, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (field(j, "format").as_string() != kFormat) {
    return fail(std::string("not a checkpoint of format ") + kFormat);
  }
  const Json& state = field(j, "state");
  const std::string text = state.dump();
  if (field(j, "hash").type() != Json::Type::Uint ||
      field(j, "hash").as_u64() != robust::fnv1a64(text)) {
    return fail("checkpoint hash mismatch (file corrupt or edited)");
  }
  FlowCheckpoint cp;
  std::string why;
  cp.circuit = field(state, "circuit").as_string();
  if (!cp.spec.read_json(field(state, "spec"), &why)) {
    return fail("checkpoint spec: " + why);
  }
  cp.ticks = field(state, "ticks").as_u64();
  cp.stats = stats_from(field(state, "stats"));
  cp.obs = field(state, "obs");
  if (!netlist_from(field(state, "original"), &cp.original, &why) ||
      !netlist_from(field(state, "netlist"), &cp.netlist, &why)) {
    return fail("checkpoint netlist: " + why);
  }
  // The fields above are read leniently; a state its own writer would not
  // write back byte for byte has one missing or ill-typed.
  if (field(cp.to_json(), "state").dump() != text) {
    return fail("checkpoint state has a missing or ill-typed field");
  }
  *this = std::move(cp);
  return true;
}

bool FlowCheckpoint::save(const std::string& path, std::string* error) const {
  const std::string tmp = path + ".tmp";
  std::string why;
  if (robust::inject_write_failure()) {
    why = "injected write failure for " + path;
  } else {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    to_json().write(os);
    os << '\n';
    if (!os.flush()) why = "cannot write " + tmp;
  }
  if (why.empty() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    why = "cannot rename " + tmp + " to " + path;
  }
  if (!why.empty()) {
    if (error) *error = why;
    return false;
  }
  ChromeTrace::instant("checkpoint.write");
  EventLog::milestone("checkpoint.write");
  // A scripted halt fires only after the rename: the file on disk is always
  // either the previous checkpoint or this complete one, never a torso.
  robust::inject_halt_after_checkpoint();
  return true;
}

bool FlowCheckpoint::load(const std::string& path, std::string* error) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string why;
  const std::optional<Json> j = Json::parse(buf.str(), &why);
  if (!is || !j || !from_json(*j, &why)) {
    if (error) *error = "checkpoint " + path + ": " + (is ? why : "cannot open");
    return false;
  }
  return true;
}

}  // namespace compsyn

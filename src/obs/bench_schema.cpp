#include "obs/bench_schema.hpp"

#include <utility>

namespace compsyn {

bool bench_normalize_v2(Json doc, Json* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!doc.is_object()) return fail("bench report is not a JSON object");
  const Json* name = doc.find("name");
  if (name == nullptr || name->type() != Json::Type::String) {
    return fail("bench report has no string 'name'");
  }
  const Json* spans = doc.find("spans");
  if (spans == nullptr || !spans->is_array()) {
    return fail("bench report has no 'spans' array");
  }
  const Json* counters = doc.find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return fail("bench report has no 'counters' object");
  }
  if (const Json* schema = doc.find("schema")) {
    if (schema->type() != Json::Type::String ||
        schema->as_string() != kBenchSchemaV2) {
      return fail("unsupported bench schema '" +
                  (schema->type() == Json::Type::String ? schema->as_string()
                                                        : std::string("?")) +
                  "' (expected " + std::string(kBenchSchemaV2) + ")");
    }
    *out = std::move(doc);
    return true;
  }
  // Untagged report: prepend the tag, keep everything else in order.
  Json tagged = Json::object();
  tagged.set("schema", Json(std::string(kBenchSchemaV2)));
  for (auto& [key, value] : doc.items()) {
    tagged.set(key, value);
  }
  *out = std::move(tagged);
  return true;
}

}  // namespace compsyn

#include "serve/wal.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "robust/robust.hpp"
#include "robust/inject.hpp"

namespace compsyn::serve {
namespace {

constexpr const char* kGuardKey = ",\"guard\":\"";

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

bool parse_hex16(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  *out = v;
  return true;
}

}  // namespace

std::string WalRecord::encode() const {
  Json j = Json::object();
  j.set("type", type);
  if (type == "header") {
    j.set("format", kWalFormat);
  } else {
    j.set("seq", seq);
  }
  for (const auto& [key, value] : fields.items()) j.set(key, value);
  std::string body = j.dump();  // compact, ends with '}'
  const std::uint64_t guard = robust::fnv1a64(body);
  body.pop_back();  // drop the closing '}'
  body += kGuardKey;
  body += hex16(guard);
  body += "\"}";
  return body;
}

std::optional<WalRecord> WalRecord::decode(std::string_view line,
                                           std::string* error) {
  const auto pos = line.rfind(kGuardKey);
  if (pos == std::string_view::npos || line.size() < pos + 28 ||
      line.substr(line.size() - 2) != "\"}") {
    if (error) *error = "wal record has no guard";
    return std::nullopt;
  }
  std::uint64_t claimed = 0;
  const std::string_view hex =
      line.substr(pos + std::char_traits<char>::length(kGuardKey),
                  line.size() - 2 - pos -
                      std::char_traits<char>::length(kGuardKey));
  if (!parse_hex16(hex, &claimed)) {
    if (error) *error = "wal record guard is malformed";
    return std::nullopt;
  }
  std::string body(line.substr(0, pos));
  body += '}';
  if (robust::fnv1a64(body) != claimed) {
    if (error) *error = "wal record guard mismatch";
    return std::nullopt;
  }
  std::string parse_error;
  const std::optional<Json> j = Json::parse(body, &parse_error);
  if (!j || !j->is_object()) {
    if (error) *error = "wal record is not a JSON object: " + parse_error;
    return std::nullopt;
  }
  const Json* type = j->find("type");
  if (type == nullptr || type->type() != Json::Type::String) {
    if (error) *error = "wal record has no type";
    return std::nullopt;
  }
  WalRecord rec;
  rec.type = type->as_string();
  if (rec.type == "header") {
    const Json* fmt = j->find("format");
    if (fmt == nullptr || fmt->type() != Json::Type::String ||
        fmt->as_string() != kWalFormat) {
      if (error) *error = "wal header format mismatch";
      return std::nullopt;
    }
  } else {
    const Json* seq = j->find("seq");
    if (seq == nullptr || (seq->type() != Json::Type::Uint &&
                           seq->type() != Json::Type::Int)) {
      if (error) *error = "wal record has no seq";
      return std::nullopt;
    }
    rec.seq = seq->as_u64();
  }
  for (const auto& [key, value] : j->items()) {
    if (key == "type" || key == "seq" || key == "format") continue;
    rec.fields.set(key, value);
  }
  return rec;
}

JobWal::~JobWal() { close(); }

void JobWal::close() {
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
}

bool JobWal::open(const std::string& path, Replay* replay,
                  std::string* error) {
  close();
  path_ = path;
  dead_ = false;
  replay->records.clear();
  replay->dropped = 0;

  bool have_header = false;
  {
    std::ifstream in(path, std::ios::binary);
    if (in.is_open()) {
      std::string line;
      bool first = true;
      bool damaged = false;
      std::string decode_error;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (damaged) {
          ++replay->dropped;
          continue;
        }
        std::optional<WalRecord> rec = WalRecord::decode(line, &decode_error);
        if (!rec) {
          if (first) {
            // A journal whose very first line is broken is not "tail
            // damage on an append-only file" -- refuse rather than
            // silently starting a fresh journal over unknown data.
            if (error) *error = path + ": wal header: " + decode_error;
            return false;
          }
          damaged = true;
          ++replay->dropped;
          continue;
        }
        if (first) {
          if (rec->type != "header") {
            if (error) *error = path + ": first wal record is not a header";
            return false;
          }
          have_header = true;
          first = false;
          continue;
        }
        replay->records.push_back(std::move(*rec));
      }
    }
  }

  out_ = std::fopen(path.c_str(), "ab");
  if (out_ == nullptr) {
    if (error) *error = "cannot open " + path + " for appending";
    return false;
  }
  if (!have_header) {
    WalRecord header;
    header.type = "header";
    if (!append(header, error)) return false;
  }
  return true;
}

bool JobWal::append(const WalRecord& rec, std::string* error) {
  if (out_ == nullptr || dead_) {
    if (error) *error = "wal is not open";
    return false;
  }
  const std::string line = rec.encode() + "\n";
  if (robust::inject_wal_failure() ||
      std::fwrite(line.data(), 1, line.size(), out_) != line.size() ||
      std::fflush(out_) != 0) {
    // Dead on first failure: a half-written line makes every later append
    // unparseable anyway, and retry loops on a full disk help nobody.
    dead_ = true;
    if (error) *error = "wal append to " + path_ + " failed";
    return false;
  }
  return true;
}

bool JobWal::compact(const std::vector<WalRecord>& records,
                     std::string* error) {
  if (path_.empty()) {
    if (error) *error = "wal is not open";
    return false;
  }
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.is_open()) {
      if (error) *error = "cannot open " + tmp + " for writing";
      return false;
    }
    WalRecord header;
    header.type = "header";
    os << header.encode() << '\n';
    for (const WalRecord& rec : records) os << rec.encode() << '\n';
    os.flush();
    if (robust::inject_wal_failure() || !os.good()) {
      if (error) *error = "write to " + tmp + " failed";
      std::remove(tmp.c_str());
      return false;
    }
  }
  close();
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    if (error) *error = "cannot rename " + tmp + " to " + path_;
    std::remove(tmp.c_str());
    return false;
  }
  out_ = std::fopen(path_.c_str(), "ab");
  if (out_ == nullptr) {
    if (error) *error = "cannot reopen " + path_ + " after compaction";
    return false;
  }
  dead_ = false;
  return true;
}

}  // namespace compsyn::serve

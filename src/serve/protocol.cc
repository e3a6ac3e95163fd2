#include "serve/protocol.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/strings.h"

namespace tbc::serve {

namespace {

/// Caps on repeated fields, enforced before allocation grows with
/// attacker-controlled counts.
constexpr size_t kMaxWeights = 1u << 21;  // two per variable at the 2^20 cap
constexpr size_t kMaxMpeLits = 1u << 21;
constexpr size_t kMaxMarginals = 1u << 21;

Status Bad(const std::string& what) { return Status::InvalidInput(what); }

/// Pulls the next '\n'-terminated line out of `rest`. Returns false at end
/// of payload. A final line without a trailing newline is accepted.
bool NextLine(std::string_view* rest, std::string_view* line) {
  if (rest->empty()) return false;
  const size_t nl = rest->find('\n');
  if (nl == std::string_view::npos) {
    *line = *rest;
    rest->remove_prefix(rest->size());
  } else {
    *line = rest->substr(0, nl);
    rest->remove_prefix(nl + 1);
  }
  // Tolerate CRLF from hand-driven clients (netcat on a DOS file).
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  return true;
}

/// Splits "key value..." on the first space. Key must be non-empty.
void SplitKey(std::string_view line, std::string_view* key,
              std::string_view* value) {
  const size_t sp = line.find(' ');
  if (sp == std::string_view::npos) {
    *key = line;
    *value = std::string_view();
  } else {
    *key = line.substr(0, sp);
    *value = line.substr(sp + 1);
  }
}

/// Consumes a byte-counted blob ("cnf <n>" / "stats <n>" payloads): the
/// remaining bytes of the payload must be exactly `declared`.
Status TakeBlob(std::string_view rest, std::string_view count_token,
                const char* what, std::string* out) {
  uint64_t declared = 0;
  if (!ParseUint64(count_token, &declared)) {
    return Bad(std::string(what) + " blob needs a byte count");
  }
  if (declared != rest.size()) {
    return Bad(std::string(what) + " blob byte count " +
               std::to_string(declared) + " does not match remaining " +
               std::to_string(rest.size()) + " payload bytes");
  }
  out->assign(rest.data(), rest.size());
  return Status::Ok();
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kCompile: return "compile";
    case Op::kCount: return "count";
    case Op::kWmc: return "wmc";
    case Op::kMar: return "mar";
    case Op::kMpe: return "mpe";
    case Op::kStats: return "stats";
  }
  return "ping";
}

bool OpFromName(std::string_view name, Op* out) {
  for (Op op : {Op::kPing, Op::kCompile, Op::kCount, Op::kWmc, Op::kMar,
                Op::kMpe, Op::kStats}) {
    if (name == OpName(op)) {
      *out = op;
      return true;
    }
  }
  return false;
}

std::string EncodeDouble(double v) {
  // Locale-independent hexfloat (base/strings.h): "%a"/strtod honour the
  // run-time locale's radix character, so a server and client in different
  // locales would disagree about "0x1.8p+1" — pinned by the
  // LocaleIndependence protocol tests.
  return FormatDoubleHex(v);
}

bool DecodeDouble(std::string_view token, double* out) {
  if (token.empty() || token.size() > 63) return false;
  return ParseDoubleAnyFormat(token, out);
}

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(kFrameMagic, sizeof(kFrameMagic));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  frame.append(payload.data(), payload.size());
  return frame;
}

Status DecodeFrameHeader(const unsigned char header[kFrameHeaderBytes],
                         size_t max_frame_bytes, size_t* payload_len) {
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Bad("bad frame magic");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
  }
  if (len > max_frame_bytes) {
    return Bad("frame of " + std::to_string(len) + " bytes exceeds cap of " +
               std::to_string(max_frame_bytes));
  }
  *payload_len = len;
  return Status::Ok();
}

std::string Request::Serialize() const {
  std::string out = "tbcq 1\n";
  out += "op ";
  out += OpName(op);
  out += "\n";
  if (timeout_ms > 0.0) out += "timeout_ms " + EncodeDouble(timeout_ms) + "\n";
  if (max_nodes > 0) out += "max_nodes " + std::to_string(max_nodes) + "\n";
  if (max_decisions > 0) {
    out += "max_decisions " + std::to_string(max_decisions) + "\n";
  }
  for (const auto& [lit, w] : weights) {
    out += "weight " + std::to_string(lit) + " " + EncodeDouble(w) + "\n";
  }
  if (!cnf_text.empty()) {
    out += "cnf " + std::to_string(cnf_text.size()) + "\n";
    out += cnf_text;
  }
  return out;
}

Result<Request> Request::Parse(std::string_view payload) {
  Request req;
  std::string_view rest = payload;
  std::string_view line;
  if (!NextLine(&rest, &line) || line != "tbcq 1") {
    return Bad("request does not start with 'tbcq 1'");
  }
  bool saw_op = false, saw_timeout = false, saw_nodes = false,
       saw_decisions = false;
  while (NextLine(&rest, &line)) {
    if (line.empty()) return Bad("empty line in request");
    std::string_view key, value;
    SplitKey(line, &key, &value);
    if (key == "op") {
      if (saw_op) return Bad("duplicate op");
      if (!OpFromName(value, &req.op)) {
        return Bad("unknown op '" + std::string(value) + "'");
      }
      saw_op = true;
    } else if (key == "timeout_ms") {
      if (saw_timeout) return Bad("duplicate timeout_ms");
      if (!DecodeDouble(value, &req.timeout_ms) || req.timeout_ms < 0.0 ||
          std::isinf(req.timeout_ms)) {
        return Bad("bad timeout_ms '" + std::string(value) + "'");
      }
      saw_timeout = true;
    } else if (key == "max_nodes") {
      if (saw_nodes) return Bad("duplicate max_nodes");
      if (!ParseUint64(value, &req.max_nodes)) {
        return Bad("bad max_nodes '" + std::string(value) + "'");
      }
      saw_nodes = true;
    } else if (key == "max_decisions") {
      if (saw_decisions) return Bad("duplicate max_decisions");
      if (!ParseUint64(value, &req.max_decisions)) {
        return Bad("bad max_decisions '" + std::string(value) + "'");
      }
      saw_decisions = true;
    } else if (key == "weight") {
      if (req.weights.size() >= kMaxWeights) return Bad("too many weight lines");
      const size_t sp = value.find(' ');
      if (sp == std::string_view::npos) return Bad("weight needs 'LIT W'");
      int lit = 0;
      double w = 0.0;
      if (!ParseInt(value.substr(0, sp), &lit) || lit == 0 ||
          lit < -(1 << 28) || lit > (1 << 28)) {
        return Bad("bad weight literal '" + std::string(value.substr(0, sp)) + "'");
      }
      if (!DecodeDouble(value.substr(sp + 1), &w) || w < 0.0 || std::isinf(w)) {
        return Bad("bad weight value '" + std::string(value.substr(sp + 1)) + "'");
      }
      req.weights.emplace_back(lit, w);
    } else if (key == "cnf") {
      TBC_RETURN_IF_ERROR(TakeBlob(rest, value, "cnf", &req.cnf_text));
      rest = std::string_view();
    } else {
      return Bad("unknown request key '" + std::string(key) + "'");
    }
  }
  if (!saw_op) return Bad("request missing op");
  const bool needs_cnf = req.op != Op::kPing && req.op != Op::kStats;
  if (needs_cnf && req.cnf_text.empty()) {
    return Bad(std::string("op ") + OpName(req.op) + " requires a cnf blob");
  }
  return req;
}

Status Response::ToStatus() const {
  if (ok()) return Status::Ok();
  return Status::Error(status, message);
}

std::string Response::Serialize() const {
  std::string out = "tbcr 1\n";
  out += "status ";
  out += StatusCodeName(status);
  out += "\n";
  if (!message.empty()) {
    std::string flat = message;
    for (char& c : flat) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out += "message " + flat + "\n";
  }
  if (!count.empty()) out += "count " + count + "\n";
  if (has_wmc) out += "wmc " + EncodeDouble(wmc) + "\n";
  for (const auto& [lit, v] : marginals) {
    out += "marg " + std::to_string(lit) + " " + EncodeDouble(v) + "\n";
  }
  if (has_mpe) {
    out += "mpe_weight " + EncodeDouble(mpe_weight) + "\n";
    out += "mpe";
    for (int l : mpe) {
      out += ' ';
      out += std::to_string(l);
    }
    out += "\n";
  }
  if (circuit_nodes > 0) out += "nodes " + std::to_string(circuit_nodes) + "\n";
  if (circuit_edges > 0) out += "edges " + std::to_string(circuit_edges) + "\n";
  if (!artifact.empty()) out += "artifact " + artifact + "\n";
  out += std::string("cache ") + (cache_hit ? "hit" : "miss") + "\n";
  if (!stats_json.empty()) {
    out += "stats " + std::to_string(stats_json.size()) + "\n";
    out += stats_json;
  }
  return out;
}

Result<Response> Response::Parse(std::string_view payload) {
  Response resp;
  std::string_view rest = payload;
  std::string_view line;
  if (!NextLine(&rest, &line) || line != "tbcr 1") {
    return Bad("response does not start with 'tbcr 1'");
  }
  bool saw_status = false, saw_cache = false;
  while (NextLine(&rest, &line)) {
    if (line.empty()) return Bad("empty line in response");
    std::string_view key, value;
    SplitKey(line, &key, &value);
    if (key == "status") {
      if (saw_status) return Bad("duplicate status");
      if (!StatusCodeFromName(value, &resp.status)) {
        return Bad("unknown status '" + std::string(value) + "'");
      }
      saw_status = true;
    } else if (key == "message") {
      resp.message.assign(value.data(), value.size());
    } else if (key == "count") {
      // Decimal digits only (BigUint::ToString output).
      if (value.empty() || value.size() > (1u << 20)) return Bad("bad count");
      for (char c : value) {
        if (c < '0' || c > '9') return Bad("bad count digit");
      }
      resp.count.assign(value.data(), value.size());
    } else if (key == "wmc") {
      if (!DecodeDouble(value, &resp.wmc)) {
        return Bad("bad wmc '" + std::string(value) + "'");
      }
      resp.has_wmc = true;
    } else if (key == "marg") {
      if (resp.marginals.size() >= kMaxMarginals) return Bad("too many marg lines");
      const size_t sp = value.find(' ');
      if (sp == std::string_view::npos) return Bad("marg needs 'LIT W'");
      int lit = 0;
      double v = 0.0;
      if (!ParseInt(value.substr(0, sp), &lit) || lit == 0) {
        return Bad("bad marg literal");
      }
      if (!DecodeDouble(value.substr(sp + 1), &v)) return Bad("bad marg value");
      resp.marginals.emplace_back(lit, v);
    } else if (key == "mpe_weight") {
      if (!DecodeDouble(value, &resp.mpe_weight)) return Bad("bad mpe_weight");
    } else if (key == "mpe") {
      for (const std::string& tok : SplitWhitespace(value)) {
        if (resp.mpe.size() >= kMaxMpeLits) return Bad("too many mpe literals");
        int lit = 0;
        if (!ParseInt(tok, &lit) || lit == 0) return Bad("bad mpe literal");
        resp.mpe.push_back(lit);
      }
      resp.has_mpe = true;
    } else if (key == "nodes") {
      if (!ParseUint64(value, &resp.circuit_nodes)) return Bad("bad nodes");
    } else if (key == "edges") {
      if (!ParseUint64(value, &resp.circuit_edges)) return Bad("bad edges");
    } else if (key == "artifact") {
      if (value.size() != 32) return Bad("artifact key must be 32 hex chars");
      for (char c : value) {
        const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex) return Bad("bad artifact key");
      }
      resp.artifact.assign(value.data(), value.size());
    } else if (key == "cache") {
      if (saw_cache) return Bad("duplicate cache");
      if (value != "hit" && value != "miss") return Bad("bad cache flag");
      resp.cache_hit = value == "hit";
      saw_cache = true;
    } else if (key == "stats") {
      TBC_RETURN_IF_ERROR(TakeBlob(rest, value, "stats", &resp.stats_json));
      rest = std::string_view();
    } else {
      return Bad("unknown response key '" + std::string(key) + "'");
    }
  }
  if (!saw_status) return Bad("response missing status");
  return resp;
}

}  // namespace tbc::serve

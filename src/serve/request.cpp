#include "serve/request.hpp"

#include "support/check.hpp"

namespace eclp::serve {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kCc: return "cc";
    case Algo::kGc: return "gc";
    case Algo::kMis: return "mis";
    case Algo::kMst: return "mst";
    case Algo::kScc: return "scc";
  }
  return "cc";
}

Algo parse_algo(const std::string& s) {
  if (s == "cc") return Algo::kCc;
  if (s == "gc") return Algo::kGc;
  if (s == "mis") return Algo::kMis;
  if (s == "mst") return Algo::kMst;
  if (s == "scc") return Algo::kScc;
  ECLP_CHECK_MSG(false, "unknown algo '" << s
                        << "' (cc | gc | mis | mst | scc)");
  return Algo::kCc;
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kError: return "error";
  }
  return "error";
}

Request Request::from_json(const json::Value& v, usize index) {
  ECLP_CHECK_MSG(v.is_object(), "request " << index << ": not a JSON object");
  Request req;
  req.id = "r" + std::to_string(index);
  for (const auto& [key, value] : v.members()) {
    if (key == "id") {
      req.id = value.as_string();
    } else if (key == "algo") {
      req.algo = parse_algo(value.as_string());
    } else if (key == "input") {
      req.input = value.as_string();
    } else if (key == "graph") {
      req.file = value.as_string();
    } else if (key == "scale") {
      req.scale = gen::parse_scale(value.as_string());
    } else if (key == "seed") {
      req.seed = value.as_u64();
    } else if (key == "weights") {
      req.weights_seed = value.as_u64();
    } else if (key == "directed") {
      req.directed = value.as_bool();
    } else if (key == "verify") {
      req.verify = value.as_bool();
    } else if (key == "reorder") {
      req.reorder = value.as_string();
    } else if (key == "llc") {
      req.llc = value.as_string();
    } else {
      ECLP_CHECK_MSG(false, "request " << req.id << ": unknown field '"
                            << key << "'");
    }
  }
  ECLP_CHECK_MSG(req.input.empty() != req.file.empty(),
                 "request " << req.id
                            << ": exactly one of \"input\" (suite name) or "
                               "\"graph\" (file path) is required");
  return req;
}

json::Value Request::to_json() const {
  json::Value v = json::Value::object();
  v.set("id", id);
  v.set("algo", algo_name(algo));
  if (!input.empty()) {
    v.set("input", input);
    v.set("scale", gen::scale_name(scale));
  } else {
    v.set("graph", file);
  }
  v.set("seed", seed);
  if (algo == Algo::kMst) v.set("weights", weights_seed);
  if (directed) v.set("directed", true);
  if (verify) v.set("verify", true);
  // Emitted only when set, so pre-existing request round-trips (and the
  // serve goldens) are unchanged.
  if (!reorder.empty()) v.set("reorder", reorder);
  if (!llc.empty()) v.set("llc", llc);
  return v;
}

std::vector<Request> parse_requests_jsonl(const std::string& text) {
  std::vector<Request> requests;
  usize begin = 0;
  for (usize line_no = 1; begin < text.size(); ++line_no) {
    usize end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const usize first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      requests.push_back(
          Request::from_json(json::Value::parse(line), requests.size()));
    } catch (const CheckFailure& e) {
      // The check's own text, without its source location: this message
      // is for whoever wrote the request file.
      throw CheckFailure("line " + std::to_string(line_no) + ": " +
                         std::string(e.message()));
    }
  }
  return requests;
}

json::Value Response::to_json(bool timing) const {
  json::Value v = json::Value::object();
  v.set("id", id);
  v.set("algo", algo_name(algo));
  v.set("graph", graph);
  v.set("status", status_name(status));
  if (status == Status::kOk) {
    v.set("summary", summary);
    v.set("modeled_cycles", modeled_cycles);
    // LLC fields appear only for cache-enabled requests, keeping
    // cache-off response lines (and the serve goldens) unchanged.
    if (llc_hits + llc_misses > 0) {
      v.set("llc_hits", llc_hits);
      v.set("llc_misses", llc_misses);
    }
    v.set("checksum", checksum);
  } else {
    v.set("error", error);
  }
  if (timing) {
    v.set("pool", pool_hit ? "hit" : "miss");
    v.set("wall_ms", wall_ms);
  }
  return v;
}

std::string responses_to_jsonl(const std::vector<Response>& responses,
                               bool timing) {
  std::string out;
  for (const Response& r : responses) {
    out += r.to_json(timing).dump();
    out += '\n';
  }
  return out;
}

}  // namespace eclp::serve

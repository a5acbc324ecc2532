#include "serving/protocol.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace kgnet::serving {

namespace {

/// Poll slice: how long a blocked read sleeps between checks of the stop
/// flag. Short enough that shutdown and idle-timeout stay responsive.
constexpr int kPollSliceMs = 50;

/// Reads exactly `n` bytes. `first_byte` tells the caller whether the
/// peer closed cleanly before the frame started (EOF at byte 0) or died
/// mid-frame.
Status ReadExact(int fd, size_t n, int idle_timeout_ms,
                 const std::atomic<bool>* stop, char* out, bool* got_any) {
  size_t done = 0;
  int waited_ms = 0;
  while (done < n) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = poll(&pfd, 1, kPollSliceMs);
    if (stop != nullptr && stop->load(std::memory_order_relaxed))
      return Status::OutOfRange("server stopping");
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("poll: ") + std::strerror(errno));
    }
    if (pr == 0) {
      waited_ms += kPollSliceMs;
      if (idle_timeout_ms > 0 && waited_ms >= idle_timeout_ms)
        return Status::OutOfRange("read timed out");
      continue;
    }
    const ssize_t r = recv(fd, out + done, n - done, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Unavailable(std::string("recv: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (done == 0 && !*got_any) return Status::NotFound("peer closed");
      return Status::Unavailable("connection closed mid-frame");
    }
    *got_any = true;
    done += static_cast<size_t>(r);
    waited_ms = 0;  // progress resets the idle clock
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(std::string_view body) {
  const uint32_t n = static_cast<uint32_t>(body.size());
  std::string out;
  out.reserve(4 + body.size());
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>(n & 0xff));
  out.append(body);
  return out;
}

Status ReadFrame(int fd, size_t max_frame_bytes, int idle_timeout_ms,
                 const std::atomic<bool>* stop, std::string* body) {
  char hdr[4];
  bool got_any = false;
  KGNET_RETURN_IF_ERROR(
      ReadExact(fd, 4, idle_timeout_ms, stop, hdr, &got_any));
  const uint32_t n = (static_cast<uint32_t>(static_cast<uint8_t>(hdr[0]))
                      << 24) |
                     (static_cast<uint32_t>(static_cast<uint8_t>(hdr[1]))
                      << 16) |
                     (static_cast<uint32_t>(static_cast<uint8_t>(hdr[2]))
                      << 8) |
                     static_cast<uint32_t>(static_cast<uint8_t>(hdr[3]));
  if (n > max_frame_bytes)
    return Status::InvalidArgument("frame length " + std::to_string(n) +
                                   " exceeds cap of " +
                                   std::to_string(max_frame_bytes) + " bytes");
  body->resize(n);
  if (n == 0) return Status::OK();
  return ReadExact(fd, n, idle_timeout_ms, stop, body->data(), &got_any);
}

Status WriteFrame(int fd, std::string_view body) {
  const std::string frame = EncodeFrame(body);
  size_t done = 0;
  while (done < frame.size()) {
    const ssize_t w =
        send(fd, frame.data() + done, frame.size() - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Unavailable(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

std::string BuildQueryRequest(double id, const std::string& query,
                              int64_t deadline_ms, const std::string& rid) {
  core::JsonValue req = core::JsonValue::Object();
  req.Set("op", core::JsonValue(std::string("query")));
  req.Set("id", core::JsonValue(id));
  req.Set("query", core::JsonValue(query));
  // Both keys appear only when set: a request without resilience fields
  // serializes to the exact pre-resilience bytes (the loopback
  // differential tests compare responses byte-for-byte, and requests
  // feed the at-most-once cache keyed by rid).
  if (deadline_ms >= 0)
    req.Set("deadline_ms", core::JsonValue(static_cast<double>(deadline_ms)));
  if (!rid.empty()) req.Set("rid", core::JsonValue(rid));
  return core::DumpJson(req);
}

std::string BuildInferRequest(double id, const char* op,
                              const std::string& model,
                              const std::string& node, size_t k) {
  core::JsonValue req = core::JsonValue::Object();
  req.Set("op", core::JsonValue(std::string(op)));
  req.Set("id", core::JsonValue(id));
  req.Set("model", core::JsonValue(model));
  req.Set("node", core::JsonValue(node));
  req.Set("k", core::JsonValue(static_cast<double>(k)));
  return core::DumpJson(req);
}

std::string BuildPingRequest(double id) {
  core::JsonValue req = core::JsonValue::Object();
  req.Set("op", core::JsonValue(std::string("ping")));
  req.Set("id", core::JsonValue(id));
  return core::DumpJson(req);
}

std::string BuildHealthRequest(double id) {
  core::JsonValue req = core::JsonValue::Object();
  req.Set("op", core::JsonValue(std::string("health")));
  req.Set("id", core::JsonValue(id));
  return core::DumpJson(req);
}

namespace {

/// A required string field; wrong type or absence is InvalidArgument
/// (not a disconnect — the server answers the error and keeps reading).
Result<std::string> RequireString(const core::JsonValue& obj,
                                  const char* field) {
  const core::JsonValue* v = obj.Find(field);
  if (v == nullptr)
    return Status::InvalidArgument(std::string("request missing \"") + field +
                                   "\" field");
  if (!v->is_string())
    return Status::InvalidArgument(std::string("request field \"") + field +
                                   "\" must be a string");
  return v->AsString();
}

}  // namespace

Result<Request> ParseRequest(const std::string& body) {
  auto parsed = core::ParseJson(body);
  if (!parsed.ok())
    return Status::InvalidArgument("request is not valid JSON: " +
                                   parsed.status().message());
  const core::JsonValue& obj = *parsed;
  if (!obj.is_object())
    return Status::InvalidArgument("request must be a JSON object");
  Request req;
  const core::JsonValue* id = obj.Find("id");
  if (id != nullptr) {
    if (!id->is_number())
      return Status::InvalidArgument("request field \"id\" must be a number");
    req.id = id->AsNumber();
  }
  const core::JsonValue* deadline = obj.Find("deadline_ms");
  if (deadline != nullptr) {
    // 0 is legal (already-expired: fails fast with DeadlineExceeded);
    // cap at 24h so the value survives the double round-trip exactly.
    if (!deadline->is_number() || deadline->AsNumber() < 0 ||
        deadline->AsNumber() > 86400000)
      return Status::InvalidArgument(
          "request field \"deadline_ms\" must be a number in [0, 86400000]");
    req.deadline_ms = static_cast<int64_t>(deadline->AsNumber());
  }
  const core::JsonValue* rid = obj.Find("rid");
  if (rid != nullptr) {
    if (!rid->is_string())
      return Status::InvalidArgument("request field \"rid\" must be a string");
    req.rid = rid->AsString();
  }
  KGNET_ASSIGN_OR_RETURN(std::string op, RequireString(obj, "op"));
  if (op == "ping") {
    req.op = Request::Op::kPing;
    return req;
  }
  if (op == "health") {
    req.op = Request::Op::kHealth;
    return req;
  }
  if (op == "query") {
    req.op = Request::Op::kQuery;
    KGNET_ASSIGN_OR_RETURN(req.query, RequireString(obj, "query"));
    return req;
  }
  if (op == "infer_class" || op == "infer_links" || op == "infer_similar") {
    req.op = op == "infer_class"   ? Request::Op::kInferClass
             : op == "infer_links" ? Request::Op::kInferLinks
                                   : Request::Op::kInferSimilar;
    KGNET_ASSIGN_OR_RETURN(req.model, RequireString(obj, "model"));
    KGNET_ASSIGN_OR_RETURN(req.node, RequireString(obj, "node"));
    const core::JsonValue* k = obj.Find("k");
    if (k != nullptr) {
      if (!k->is_number() || k->AsNumber() < 0 || k->AsNumber() > 1e9)
        return Status::InvalidArgument(
            "request field \"k\" must be a small non-negative number");
      req.k = static_cast<size_t>(k->AsNumber());
    }
    return req;
  }
  return Status::InvalidArgument("unknown request op \"" + op + "\"");
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

core::JsonValue EncodeTerm(const rdf::Term& term) {
  core::JsonValue arr = core::JsonValue::Array();
  switch (term.kind) {
    case rdf::TermKind::kIri:
      arr.Push(core::JsonValue(std::string("i")));
      arr.Push(core::JsonValue(term.lexical));
      break;
    case rdf::TermKind::kLiteral:
      arr.Push(core::JsonValue(std::string("l")));
      arr.Push(core::JsonValue(term.lexical));
      arr.Push(core::JsonValue(term.datatype));
      arr.Push(core::JsonValue(term.lang));
      break;
    case rdf::TermKind::kBlank:
      arr.Push(core::JsonValue(std::string("b")));
      arr.Push(core::JsonValue(term.lexical));
      break;
    case rdf::TermKind::kUndef:
      arr.Push(core::JsonValue(std::string("u")));
      break;
  }
  return arr;
}

Result<rdf::Term> DecodeTerm(const core::JsonValue& value) {
  if (value.kind() != core::JsonValue::Kind::kArray ||
      value.AsArray().empty() || !value.AsArray()[0].is_string())
    return Status::ParseError("malformed term encoding");
  const auto& arr = value.AsArray();
  const std::string& tag = arr[0].AsString();
  auto lex = [&](size_t i) -> std::string {
    return i < arr.size() && arr[i].is_string() ? arr[i].AsString()
                                                : std::string();
  };
  if (tag == "i") return rdf::Term::Iri(lex(1));
  if (tag == "b") return rdf::Term(rdf::TermKind::kBlank, lex(1));
  if (tag == "u") return rdf::Term(rdf::TermKind::kUndef, std::string());
  if (tag == "l") {
    rdf::Term t(rdf::TermKind::kLiteral, lex(1));
    t.datatype = lex(2);
    t.lang = lex(3);
    return t;
  }
  return Status::ParseError("unknown term tag \"" + tag + "\"");
}

namespace {

/// The query response object without the snapshot keys.
core::JsonValue QueryResponseObject(double id,
                                    const sparql::QueryResult& result) {
  core::JsonValue resp = core::JsonValue::Object();
  resp.Set("ok", core::JsonValue(true));
  resp.Set("id", core::JsonValue(id));
  core::JsonValue cols = core::JsonValue::Array();
  for (const std::string& c : result.columns) cols.Push(core::JsonValue(c));
  resp.Set("columns", std::move(cols));
  core::JsonValue rows = core::JsonValue::Array();
  for (const std::vector<rdf::Term>& row : result.rows) {
    core::JsonValue r = core::JsonValue::Array();
    for (const rdf::Term& t : row) r.Push(EncodeTerm(t));
    rows.Push(std::move(r));
  }
  resp.Set("rows", std::move(rows));
  resp.Set("ask", core::JsonValue(result.ask_result));
  resp.Set("inserted",
           core::JsonValue(static_cast<double>(result.num_inserted)));
  resp.Set("deleted",
           core::JsonValue(static_cast<double>(result.num_deleted)));
  return resp;
}

}  // namespace

std::string BuildQueryResponse(double id, const sparql::QueryResult& result,
                               const sparql::ExecInfo* info) {
  if (info != nullptr)
    return BuildQueryResponse(id, result, info->snapshot_epoch,
                              info->snapshot_delta);
  return core::DumpJson(QueryResponseObject(id, result));
}

std::string BuildQueryResponse(double id, const sparql::QueryResult& result,
                               uint64_t epoch, size_t delta) {
  core::JsonValue resp = QueryResponseObject(id, result);
  resp.Set("epoch", core::JsonValue(static_cast<double>(epoch)));
  resp.Set("delta", core::JsonValue(static_cast<double>(delta)));
  return core::DumpJson(resp);
}

std::string BuildErrorResponse(double id, const Status& status) {
  core::JsonValue resp = core::JsonValue::Object();
  resp.Set("ok", core::JsonValue(false));
  resp.Set("id", core::JsonValue(id));
  resp.Set("code",
           core::JsonValue(std::string(StatusCodeToString(status.code()))));
  resp.Set("error", core::JsonValue(status.message()));
  return core::DumpJson(resp);
}

std::string BuildValueResponse(double id, const std::string& value) {
  core::JsonValue resp = core::JsonValue::Object();
  resp.Set("ok", core::JsonValue(true));
  resp.Set("id", core::JsonValue(id));
  resp.Set("value", core::JsonValue(value));
  return core::DumpJson(resp);
}

std::string BuildValuesResponse(double id,
                                const std::vector<std::string>& values) {
  core::JsonValue resp = core::JsonValue::Object();
  resp.Set("ok", core::JsonValue(true));
  resp.Set("id", core::JsonValue(id));
  core::JsonValue arr = core::JsonValue::Array();
  for (const std::string& v : values) arr.Push(core::JsonValue(v));
  resp.Set("values", std::move(arr));
  return core::DumpJson(resp);
}

std::string BuildPongResponse(double id) {
  core::JsonValue resp = core::JsonValue::Object();
  resp.Set("ok", core::JsonValue(true));
  resp.Set("id", core::JsonValue(id));
  resp.Set("pong", core::JsonValue(true));
  return core::DumpJson(resp);
}

std::string BuildHealthResponse(double id, const HealthInfo& info) {
  core::JsonValue resp = core::JsonValue::Object();
  resp.Set("ok", core::JsonValue(true));
  resp.Set("id", core::JsonValue(id));
  resp.Set("breaker", core::JsonValue(info.breaker));
  resp.Set("retry_after_ms",
           core::JsonValue(static_cast<double>(info.retry_after_ms)));
  resp.Set("queue_depth",
           core::JsonValue(static_cast<double>(info.queue_depth)));
  resp.Set("queue_capacity",
           core::JsonValue(static_cast<double>(info.queue_capacity)));
  resp.Set("epoch", core::JsonValue(static_cast<double>(info.epoch)));
  resp.Set("draining", core::JsonValue(info.draining));
  resp.Set("served",
           core::JsonValue(static_cast<double>(info.requests_served)));
  return core::DumpJson(resp);
}


StatusCode StatusCodeFromString(const std::string& name) {
  static const struct {
    const char* name;
    StatusCode code;
  } kTable[] = {
      {"OK", StatusCode::kOk},
      {"InvalidArgument", StatusCode::kInvalidArgument},
      {"NotFound", StatusCode::kNotFound},
      {"AlreadyExists", StatusCode::kAlreadyExists},
      {"OutOfRange", StatusCode::kOutOfRange},
      {"FailedPrecondition", StatusCode::kFailedPrecondition},
      {"ResourceExhausted", StatusCode::kResourceExhausted},
      {"Unimplemented", StatusCode::kUnimplemented},
      {"ParseError", StatusCode::kParseError},
      {"Internal", StatusCode::kInternal},
      {"Cancelled", StatusCode::kCancelled},
      {"DeadlineExceeded", StatusCode::kDeadlineExceeded},
      {"Unavailable", StatusCode::kUnavailable},
  };
  for (const auto& entry : kTable)
    if (name == entry.name) return entry.code;
  return StatusCode::kInternal;
}

namespace {

/// Parses a response envelope; returns the payload object, or the
/// server-sent error as a Status.
Result<core::JsonValue> ParseEnvelope(const std::string& body) {
  auto parsed = core::ParseJson(body);
  if (!parsed.ok())
    return Status::ParseError("response is not valid JSON: " +
                              parsed.status().message());
  const core::JsonValue& obj = *parsed;
  if (!obj.is_object())
    return Status::ParseError("response must be a JSON object");
  const core::JsonValue* ok = obj.Find("ok");
  if (ok == nullptr || ok->kind() != core::JsonValue::Kind::kBool)
    return Status::ParseError("response missing \"ok\" field");
  if (!ok->AsBool()) {
    const core::JsonValue* code = obj.Find("code");
    const core::JsonValue* error = obj.Find("error");
    return Status(StatusCodeFromString(
                      code != nullptr && code->is_string() ? code->AsString()
                                                           : "Internal"),
                  error != nullptr && error->is_string() ? error->AsString()
                                                         : "unknown error");
  }
  return *parsed;
}

}  // namespace

Result<QueryResponse> ParseQueryResponse(const std::string& body) {
  KGNET_ASSIGN_OR_RETURN(core::JsonValue obj, ParseEnvelope(body));
  QueryResponse out;
  const core::JsonValue* cols = obj.Find("columns");
  if (cols == nullptr || cols->kind() != core::JsonValue::Kind::kArray)
    return Status::ParseError("query response missing \"columns\"");
  for (const core::JsonValue& c : cols->AsArray()) {
    if (!c.is_string())
      return Status::ParseError("column names must be strings");
    out.result.columns.push_back(c.AsString());
  }
  const core::JsonValue* rows = obj.Find("rows");
  if (rows == nullptr || rows->kind() != core::JsonValue::Kind::kArray)
    return Status::ParseError("query response missing \"rows\"");
  for (const core::JsonValue& row : rows->AsArray()) {
    if (row.kind() != core::JsonValue::Kind::kArray)
      return Status::ParseError("rows must be arrays");
    std::vector<rdf::Term> terms;
    terms.reserve(row.AsArray().size());
    for (const core::JsonValue& cell : row.AsArray()) {
      KGNET_ASSIGN_OR_RETURN(rdf::Term t, DecodeTerm(cell));
      terms.push_back(std::move(t));
    }
    out.result.rows.push_back(std::move(terms));
  }
  const core::JsonValue* ask = obj.Find("ask");
  if (ask != nullptr && ask->kind() == core::JsonValue::Kind::kBool)
    out.result.ask_result = ask->AsBool();
  out.result.num_inserted =
      static_cast<size_t>(obj.GetNumber("inserted", 0));
  out.result.num_deleted = static_cast<size_t>(obj.GetNumber("deleted", 0));
  const core::JsonValue* epoch = obj.Find("epoch");
  if (epoch != nullptr && epoch->is_number()) {
    out.has_snapshot = true;
    out.epoch = static_cast<uint64_t>(epoch->AsNumber());
    out.delta = static_cast<size_t>(obj.GetNumber("delta", 0));
  }
  return out;
}

Result<std::string> ParseValueResponse(const std::string& body) {
  KGNET_ASSIGN_OR_RETURN(core::JsonValue obj, ParseEnvelope(body));
  const core::JsonValue* v = obj.Find("value");
  if (v == nullptr || !v->is_string())
    return Status::ParseError("response missing \"value\"");
  return v->AsString();
}

Result<std::vector<std::string>> ParseValuesResponse(const std::string& body) {
  KGNET_ASSIGN_OR_RETURN(core::JsonValue obj, ParseEnvelope(body));
  const core::JsonValue* v = obj.Find("values");
  if (v == nullptr || v->kind() != core::JsonValue::Kind::kArray)
    return Status::ParseError("response missing \"values\"");
  std::vector<std::string> out;
  out.reserve(v->AsArray().size());
  for (const core::JsonValue& item : v->AsArray()) {
    if (!item.is_string())
      return Status::ParseError("\"values\" entries must be strings");
    out.push_back(item.AsString());
  }
  return out;
}

Status ParsePongResponse(const std::string& body) {
  auto env = ParseEnvelope(body);
  return env.ok() ? Status::OK() : env.status();
}

Result<HealthInfo> ParseHealthResponse(const std::string& body) {
  KGNET_ASSIGN_OR_RETURN(core::JsonValue obj, ParseEnvelope(body));
  HealthInfo info;
  const core::JsonValue* breaker = obj.Find("breaker");
  if (breaker == nullptr || !breaker->is_string())
    return Status::ParseError("health response missing \"breaker\"");
  info.breaker = breaker->AsString();
  info.retry_after_ms =
      static_cast<int64_t>(obj.GetNumber("retry_after_ms", 0));
  info.queue_depth = static_cast<size_t>(obj.GetNumber("queue_depth", 0));
  info.queue_capacity =
      static_cast<size_t>(obj.GetNumber("queue_capacity", 0));
  info.epoch = static_cast<uint64_t>(obj.GetNumber("epoch", 0));
  const core::JsonValue* draining = obj.Find("draining");
  if (draining != nullptr && draining->kind() == core::JsonValue::Kind::kBool)
    info.draining = draining->AsBool();
  info.requests_served = static_cast<uint64_t>(obj.GetNumber("served", 0));
  return info;
}

}  // namespace kgnet::serving

// Wire protocol of the KGNet serving front end (docs/SERVING.md).
//
// Framing: every message is a 4-byte big-endian length N followed by N
// bytes of JSON. The JSON is produced by core::DumpJson, which is
// deterministic (std::map key order, fixed escaping, fixed number
// formatting), so a given request or response always serializes to the
// same bytes — the loopback differential tests compare server responses
// byte-for-byte against locally built ones.
//
// Requests are JSON objects with an "op" field:
//
//   {"op":"query","id":7,"query":"SELECT ..."}        run SPARQL/SPARQL-ML
//   {"op":"infer_class","id":8,"model":u,"node":n}    node classification
//   {"op":"infer_links","id":9,"model":u,"node":n,"k":3}
//   {"op":"infer_similar","id":10,"model":u,"node":n,"k":3}
//   {"op":"ping","id":11}
//   {"op":"health","id":12}                           breaker/queue/epoch
//
// Any request may carry two optional resilience fields
// (docs/RESILIENCE.md): "deadline_ms" (number, 0..86400000) bounds the
// request's total server-side time — queue wait included — after which
// it fails with DeadlineExceeded; "rid" (string, at-most-once request
// id) lets the server deduplicate a retried mutating request instead of
// applying it twice. Both keys are omitted entirely when unset, so
// requests without them serialize to the exact pre-resilience bytes.
//
// Responses echo "id" and carry "ok":
//
//   {"ok":true,"id":7,"columns":[...],"rows":[[t,...],...],
//    "ask":b,"inserted":n,"deleted":n,"epoch":e,"delta":d}
//   {"ok":true,"id":8,"value":"..."}       /  {"ok":true,"values":[...]}
//   {"ok":false,"id":7,"code":"NotFound","error":"..."}
//
// "epoch"/"delta" (the MVCC snapshot the query observed) appear only on
// the concurrent plain-read path; requests routed through the serialized
// SPARQL-ML service omit them. Solution terms encode as small arrays:
// ["i",iri] / ["l",lexical,datatype,lang] / ["b",label] / ["u"].
#ifndef KGNET_SERVING_PROTOCOL_H_
#define KGNET_SERVING_PROTOCOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/json.h"
#include "sparql/engine.h"

namespace kgnet::serving {

/// Frames a server never accepts beyond this many body bytes (guards the
/// length prefix against garbage / hostile values). Options can lower it.
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// 4-byte big-endian length prefix + body.
std::string EncodeFrame(std::string_view body);

/// Blocking frame I/O over a connected socket. ReadFrame polls in short
/// slices so a server worker notices `stop` (set on shutdown) and the
/// idle timeout without being stuck in recv() on a silent peer.
///
/// Non-OK returns and how the server treats them:
///   NotFound           clean EOF before any byte of a frame (peer done)
///   OutOfRange         idle timeout expired, or stop flag set
///   InvalidArgument    length prefix exceeds `max_frame_bytes`
///   Unavailable        socket error / EOF mid-frame (transport fault —
///                      the retryable class, see docs/RESILIENCE.md)
Status ReadFrame(int fd, size_t max_frame_bytes, int idle_timeout_ms,
                 const std::atomic<bool>* stop, std::string* body);

/// Writes EncodeFrame(body); loops over short writes, suppresses SIGPIPE.
Status WriteFrame(int fd, std::string_view body);

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A decoded client request. Strictly validated: unknown "op", missing
/// or wrong-typed fields all fail with InvalidArgument — the server
/// answers with an error response and keeps the connection alive.
struct Request {
  enum class Op {
    kQuery,
    kInferClass,
    kInferLinks,
    kInferSimilar,
    kPing,
    kHealth
  };
  Op op = Op::kPing;
  double id = 0;        // echoed back verbatim
  std::string query;    // kQuery
  std::string model;    // kInfer*
  std::string node;     // kInfer*
  size_t k = 1;         // kInferLinks / kInferSimilar
  /// Total server-side budget in ms (queue wait included); -1 = none.
  int64_t deadline_ms = -1;
  /// At-most-once request id; empty = no deduplication.
  std::string rid;
};

/// `deadline_ms` < 0 and an empty `rid` omit their keys, preserving the
/// pre-resilience request bytes.
std::string BuildQueryRequest(double id, const std::string& query,
                              int64_t deadline_ms = -1,
                              const std::string& rid = std::string());
std::string BuildInferRequest(double id, const char* op,
                              const std::string& model,
                              const std::string& node, size_t k);
std::string BuildPingRequest(double id);
std::string BuildHealthRequest(double id);

Result<Request> ParseRequest(const std::string& body);

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Term <-> JSON array encoding.
core::JsonValue EncodeTerm(const rdf::Term& term);
Result<rdf::Term> DecodeTerm(const core::JsonValue& value);

/// Serialized success response for a query. `info` non-null attaches the
/// "epoch"/"delta" keys from its snapshot fields.
std::string BuildQueryResponse(double id, const sparql::QueryResult& result,
                               const sparql::ExecInfo* info);
/// The same response with "epoch"/"delta" attached from the snapshot the
/// query read (the plain concurrent-read path, which asks the engine for
/// no ExecInfo).
std::string BuildQueryResponse(double id, const sparql::QueryResult& result,
                               uint64_t epoch, size_t delta);
/// {"ok":false,...} from a Status (any request kind).
std::string BuildErrorResponse(double id, const Status& status);
std::string BuildValueResponse(double id, const std::string& value);
std::string BuildValuesResponse(double id,
                                const std::vector<std::string>& values);
std::string BuildPongResponse(double id);

/// Payload of the `.health` verb: degradation-relevant server state.
struct HealthInfo {
  std::string breaker;        // "closed" / "open" / "half_open"
  int64_t retry_after_ms = 0;  // until an open breaker probes again
  size_t queue_depth = 0;      // admission queue occupancy
  size_t queue_capacity = 0;
  uint64_t epoch = 0;  // current storage epoch
  bool draining = false;
  uint64_t requests_served = 0;
};

std::string BuildHealthResponse(double id, const HealthInfo& info);
Result<HealthInfo> ParseHealthResponse(const std::string& body);

/// A decoded query response (client side).
struct QueryResponse {
  sparql::QueryResult result;
  bool has_snapshot = false;  // epoch/delta present (plain-read path)
  uint64_t epoch = 0;
  size_t delta = 0;
};

/// Each parser returns the server-sent error Status verbatim when the
/// body is {"ok":false,...} (code string mapped back to StatusCode).
Result<QueryResponse> ParseQueryResponse(const std::string& body);
Result<std::string> ParseValueResponse(const std::string& body);
Result<std::vector<std::string>> ParseValuesResponse(const std::string& body);
/// OK when the body is a well-formed pong (or any ok:true response).
Status ParsePongResponse(const std::string& body);

/// Inverse of StatusCodeToString; unknown strings map to kInternal.
StatusCode StatusCodeFromString(const std::string& name);

}  // namespace kgnet::serving

#endif  // KGNET_SERVING_PROTOCOL_H_

// Shared fixtures for the serving-layer tests: an ephemeral-port server
// scope, a seeded graph/query generator (compact cousin of the
// exec-oracle generator), and the local response oracle that builds the
// byte-exact response the server must produce — same routing predicate
// (KgServer::RoutesToService), same snapshot discipline, same
// serialization (protocol.h builders over deterministic DumpJson).
#ifndef KGNET_TESTS_SERVING_TEST_UTIL_H_
#define KGNET_TESTS_SERVING_TEST_UTIL_H_

#include <set>
#include <string>
#include <vector>

#include "core/sparqlml.h"
#include "rdf/triple_store.h"
#include "serving/client.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "sparql/parser.h"
#include "tensor/rng.h"

namespace kgnet::serving::testing {

/// Starts a KgServer on an ephemeral loopback port for the lifetime of
/// the scope. `service` must outlive the scope.
class ScopedServer {
 public:
  explicit ScopedServer(core::SparqlMlService* service,
                        ServerOptions options = ServerOptions{})
      : server_(service, options), start_status_(server_.Start()) {}
  ~ScopedServer() { server_.Stop(); }
  ScopedServer(const ScopedServer&) = delete;
  ScopedServer& operator=(const ScopedServer&) = delete;

  const Status& start_status() const { return start_status_; }
  KgServer& server() { return server_; }
  int port() const { return server_.port(); }
  Status Connect(KgClient* client) {
    return client->Connect("127.0.0.1", server_.port());
  }

 private:
  KgServer server_;
  Status start_status_;
};

// ----------------------------------------------------- case generation --

struct ServingFact {
  std::string s, p, o;
  bool o_is_literal = false;  // numeric literal (rank attribute)
  bool operator<(const ServingFact& f) const {
    return std::tie(s, p, o, o_is_literal) <
           std::tie(f.s, f.p, f.o, f.o_is_literal);
  }
};

struct ServingCase {
  std::vector<ServingFact> facts;
  std::string sparql;
};

/// A seeded random graph plus one read-only SELECT over it: 1-3 BGP
/// patterns from a small variable pool, sometimes a variable predicate
/// (which must route to the serialized service path), plus optional
/// FILTER / UNION / OPTIONAL / DISTINCT / LIMIT / OFFSET features.
inline ServingCase GenerateServingCase(tensor::Rng* rng) {
  ServingCase c;
  const int nodes = 4 + static_cast<int>(rng->NextUint(10));
  const int preds = 2 + static_cast<int>(rng->NextUint(3));
  const int ntrip = 15 + static_cast<int>(rng->NextUint(45));
  auto node = [](uint64_t i) { return "n" + std::to_string(i); };
  auto pred = [](uint64_t i) { return "p" + std::to_string(i); };

  std::set<ServingFact> fact_set;
  for (int i = 0; i < ntrip; ++i)
    fact_set.insert({node(rng->NextUint(nodes)), pred(rng->NextUint(preds)),
                     node(rng->NextUint(nodes)), false});
  const bool with_ranks = rng->NextFloat() < 0.5f;
  if (with_ranks)
    for (int i = 0; i < nodes; ++i)
      fact_set.insert(
          {node(i), "rank", std::to_string(rng->NextUint(10)), true});
  c.facts.assign(fact_set.begin(), fact_set.end());

  const char* pool[] = {"a", "b", "c"};
  const int npat = 1 + static_cast<int>(rng->NextUint(3));
  std::vector<std::string> parts;
  std::set<std::string> vars;
  bool used_var_pred = false;
  for (int i = 0; i < npat; ++i) {
    std::string s, p, o;
    if (rng->NextFloat() < 0.7f) {
      const std::string v = pool[rng->NextUint(3)];
      vars.insert(v);
      s = "?" + v;
    } else {
      s = "<" + node(rng->NextUint(nodes)) + ">";
    }
    if (!used_var_pred && rng->NextFloat() < 0.15f) {
      p = "?pp";  // variable predicate: serialized service-path routing
      used_var_pred = true;
    } else {
      p = "<" + pred(rng->NextUint(preds)) + ">";
    }
    if (rng->NextFloat() < 0.6f) {
      const std::string v = pool[rng->NextUint(3)];
      vars.insert(v);
      o = "?" + v;
    } else {
      o = "<" + node(rng->NextUint(nodes)) + ">";
    }
    parts.push_back(s + " " + p + " " + o + " . ");
  }

  std::vector<std::string> var_list(vars.begin(), vars.end());
  if (!var_list.empty() && rng->NextFloat() < 0.4f) {
    if (with_ranks && rng->NextFloat() < 0.5f) {
      const std::string v = var_list[rng->NextUint(var_list.size())];
      parts.push_back("?" + v + " <rank> ?r . ");
      const char* ops[] = {"<", "<=", ">", ">=", "=", "!="};
      parts.push_back("FILTER(?r " + std::string(ops[rng->NextUint(6)]) +
                      " " + std::to_string(rng->NextUint(10)) + ") ");
    } else {
      parts.push_back("FILTER(?" + var_list[rng->NextUint(var_list.size())] +
                      (rng->NextFloat() < 0.5f ? " = <" : " != <") +
                      node(rng->NextUint(nodes)) + ">) ");
    }
  }
  if (!var_list.empty() && rng->NextFloat() < 0.35f) {
    const std::string v = var_list[rng->NextUint(var_list.size())];
    parts.push_back("{ ?" + v + " <" + pred(rng->NextUint(preds)) +
                    "> ?u0 . } UNION { ?" + v + " <" +
                    pred(rng->NextUint(preds)) + "> ?u1 . } ");
  }
  if (!var_list.empty() && rng->NextFloat() < 0.35f) {
    const std::string v = var_list[rng->NextUint(var_list.size())];
    parts.push_back("OPTIONAL { ?" + v + " <" + pred(rng->NextUint(preds)) +
                    "> ?x . } ");
  }

  std::string q = rng->NextFloat() < 0.3f ? "SELECT DISTINCT * WHERE { "
                                          : "SELECT * WHERE { ";
  for (const std::string& part : parts) q += part;
  q += "}";
  if (rng->NextFloat() < 0.4f)
    q += " LIMIT " + std::to_string(1 + rng->NextUint(8));
  if (rng->NextFloat() < 0.2f)
    q += " OFFSET " + std::to_string(rng->NextUint(4));
  c.sparql = q;
  return c;
}

inline void LoadCase(const ServingCase& c, rdf::TripleStore* store) {
  for (const ServingFact& f : c.facts) {
    const rdf::Term o =
        f.o_is_literal
            ? rdf::Term::TypedLiteral(
                  f.o, "http://www.w3.org/2001/XMLSchema#integer")
            : rdf::Term::Iri(f.o);
    store->Insert(rdf::Term::Iri(f.s), rdf::Term::Iri(f.p), o);
  }
}

// -------------------------------------------------------- local oracle --

/// The byte-exact response the server must send for {"op":"query"}:
/// mirrors KgServer::HandleQuery — same parse, same RoutesToService
/// routing, one MVCC snapshot on the plain path (epoch/delta attached),
/// the serialized service on the ML path (no snapshot keys), and the
/// verbatim error Status otherwise. Callers must hold writes still
/// between computing this and the server round-trip.
inline std::string LocalExpectedResponse(core::SparqlMlService* service,
                                         double id, const std::string& text) {
  auto parsed = sparql::ParseQuery(text);
  if (!parsed.ok()) return BuildErrorResponse(id, parsed.status());
  if (KgServer::RoutesToService(*parsed, text)) {
    auto result = service->Execute(text);
    if (!result.ok()) return BuildErrorResponse(id, result.status());
    return BuildQueryResponse(id, *result, nullptr);
  }
  const rdf::Snapshot snapshot = service->engine().store()->OpenSnapshot();
  auto result = service->engine().Execute(*parsed, snapshot);
  if (!result.ok()) return BuildErrorResponse(id, result.status());
  return BuildQueryResponse(id, *result, snapshot.epoch(),
                            snapshot.delta_size());
}

}  // namespace kgnet::serving::testing

#endif  // KGNET_TESTS_SERVING_TEST_UTIL_H_

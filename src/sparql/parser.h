// Recursive-descent parser for the KGNet SPARQL subset.
//
// Supported grammar (informal):
//   query        := prologue (select | ask | insertData | insertWhere
//                             | deleteWhere)
//   prologue     := (PREFIX pname ':' <iri>)*
//   select       := SELECT DISTINCT? ('*' | projection+) WHERE? ggp mods
//   projection   := var | expr AS var | callExpr AS var
//   ask          := ASK ggp
//   insertData   := INSERT DATA ggp
//   insertWhere  := INSERT (INTO <iri>)? ggp WHERE ggp
//   deleteWhere  := DELETE ggp WHERE ggp
//   ggp          := '{' (triplesBlock | FILTER '(' expr ')' | '{' select '}'
//                  )* '}'
//   triplesBlock := node node node (';' node node)* '.'?
//   mods         := (LIMIT int)? (OFFSET int)?
//
// Prefixed names are resolved to full IRIs during parsing; `a` expands to
// rdf:type. Function names in call expressions keep their written form so
// the UDF registry can match them (e.g. "sql:UDFS.getNodeClass").
#ifndef KGNET_SPARQL_PARSER_H_
#define KGNET_SPARQL_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "sparql/ast.h"

namespace kgnet::sparql {

/// Deepest nesting ParseQuery accepts, counted across group patterns
/// (`{`, OPTIONAL, UNION arms, sub-SELECTs) and expressions (parentheses,
/// `!`, call arguments); it also caps the height of an expression tree,
/// which `||`/`&&` chains grow without recursing. Parsing, planning,
/// evaluation and serialization all recurse over these trees, so a
/// hostile query of nested braces would otherwise overflow the stack.
inline constexpr int kMaxNestingDepth = 128;

/// Most triple patterns ParseQuery accepts across every WHERE group of a
/// query — OPTIONAL, UNION and sub-SELECT groups included. Planning
/// grows superlinearly in the pattern count and is not cancellable, so
/// one frame of a few thousand patterns would otherwise pin a worker for
/// seconds (and a 4 MB frame for far longer). INSERT DATA triples and
/// update templates are not counted: applying them is linear.
inline constexpr int kMaxWherePatterns = 1024;

/// Parses `text` into a Query. Nesting past kMaxNestingDepth and more
/// than kMaxWherePatterns WHERE patterns are InvalidArgument.
Result<Query> ParseQuery(std::string_view text);

}  // namespace kgnet::sparql

#endif  // KGNET_SPARQL_PARSER_H_

#ifndef TOPKRGS_UTIL_HOT_PATH_H_
#define TOPKRGS_UTIL_HOT_PATH_H_

/// TKRGS_HOT — hot-path purity annotation (DESIGN.md §16).
///
/// Marking a function TKRGS_HOT declares it a root of the mining or
/// serving fast path: the function AND everything transitively reachable
/// from it through the call graph must stay free of
///
///   * heap allocation (operator new, make_unique/make_shared, container
///     or string growth),
///   * lock acquisition of any kind, and any blocking syscall or I/O,
///   * implicit copies of the expensive set types (Bitset, RowSet,
///     PrefixTree, RuleGroup),
///   * throw and formatted-string Status/StatusOr construction,
///
/// unless the offending line carries a justified
/// `// NOLINT(hotpath: <why this is bounded/amortized/unreachable>)`.
/// The contract is enforced by tools/lint/astlint.py (ci.sh astlint),
/// which walks the call graph from every annotated root.
///
/// Mirroring util/thread_annotations.h: under clang the macro expands to
/// an annotate attribute the libclang frontend reads straight out of the
/// AST; gcc has no queryable annotation surface, so there it expands to
/// nothing and the lint's internal frontend recognizes the macro token
/// textually. Either way annotated code compiles unchanged everywhere.
#if defined(__clang__) && !defined(SWIG)
#define TKRGS_HOT __attribute__((annotate("tkrgs_hot")))
#else
#define TKRGS_HOT  // no-op outside clang; astlint matches the token
#endif

#endif  // TOPKRGS_UTIL_HOT_PATH_H_

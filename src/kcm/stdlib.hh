/**
 * @file
 * A small Prolog standard library (list and control predicates) in the
 * spirit of the SEPIA environment the KCM software stack provided.
 * Written in Prolog and compiled like any user code, but marked as
 * library so it never pollutes static-size measurements. A process
 * parses it once and compiles it once per code-affecting option pair;
 * each image then links that unit.
 */

#ifndef KCM_KCM_STDLIB_HH
#define KCM_KCM_STDLIB_HH

#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "prolog/parser.hh"

namespace kcm
{

/** Prolog source of the standard library. */
const std::string &standardLibrarySource();

/**
 * The standard library parsed once per process, under the standard
 * operator table, and shared read-only by every compile on every
 * thread (terms are immutable). Building it panics if the text holds
 * an op/3 directive: a shared parse cannot carry that directive's
 * effect on the operator table of the sources compiled after it.
 */
const std::vector<ReadClause> &standardLibraryClauses();

/**
 * The standard library compiled once per process for @p options'
 * integerArithmetic and indexing (ioAsUnitClauses does not change it):
 * the first call for a pair builds the unit from
 * standardLibraryClauses(), and every compile on every thread links it
 * read-only after that.
 */
const LibraryUnit &standardLibraryUnit(const CompilerOptions &options);

} // namespace kcm

#endif // KCM_KCM_STDLIB_HH

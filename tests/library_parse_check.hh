/**
 * @file
 * The exactness check of the standard library's process-wide unit: a
 * program compiled with KcmSystem::consultStandardLibrary(), which
 * links the unit compiled once, must give the image, byte for byte,
 * that a compile of the library text gives. Shared by the stdlib,
 * differential and fuzz suites so every program they run is checked;
 * the compiler suite uses its image comparison.
 */

#ifndef KCM_TESTS_LIBRARY_PARSE_CHECK_HH
#define KCM_TESTS_LIBRARY_PARSE_CHECK_HH

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "compiler/compiler.hh"
#include "compiler/image_io.hh"
#include "kcm/kcm.hh"
#include "kcm/stdlib.hh"

namespace kcm
{

/** @p image as saveImage() writes it: equal bytes, equal images. */
inline std::string
savedImageBytes(const CodeImage &image)
{
    std::ostringstream out;
    saveImage(image, out);
    return out.str();
}

/**
 * Compile @p program + @p goal with the standard library three ways:
 * through KcmSystem::consultStandardLibrary(), through a Compiler
 * given standardLibraryUnit(), and from the library's text. Expect
 * equal images; return whether the unit's compile linked it (false:
 * it compiled the library's clauses with the program).
 */
inline bool
expectSharedLibraryParseExact(const std::string &program,
                              const std::string &goal,
                              const CompilerOptions &options = {})
{
    KcmOptions shared_options;
    shared_options.compiler = options;
    KcmSystem shared(shared_options);
    shared.consultStandardLibrary();
    shared.consult(program);

    Compiler unit(options);
    unit.addLibrary(standardLibraryUnit(options));
    unit.addProgram(program);
    unit.setQuery(goal);

    Compiler text(options);
    text.addLibrary(standardLibrarySource());
    text.addProgram(program);
    text.setQuery(goal);

    const std::string expected = savedImageBytes(text.compile());
    EXPECT_EQ(savedImageBytes(shared.compileOnly(goal)), expected)
        << "the shared library changed the image of: " << goal
        << "\nprogram:\n"
        << program;
    EXPECT_EQ(savedImageBytes(unit.compile()), expected)
        << "the linked library unit changed the image of: " << goal;
    return unit.linkedLibrary();
}

/**
 * The same under all four integerArithmetic x indexing pairs, each
 * with its own unit (ioAsUnitClauses from @p base). Returns whether
 * every compile linked the unit.
 */
inline bool
expectSharedLibraryParseExactAllPairs(const std::string &program,
                                      const std::string &goal,
                                      const CompilerOptions &base = {})
{
    bool linked = true;
    for (bool integer_arithmetic : {true, false}) {
        for (bool indexing : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << "integerArithmetic=" << integer_arithmetic
                         << " indexing=" << indexing);
            CompilerOptions options = base;
            options.integerArithmetic = integer_arithmetic;
            options.indexing = indexing;
            linked = expectSharedLibraryParseExact(program, goal, options) &&
                     linked;
        }
    }
    return linked;
}

} // namespace kcm

#endif // KCM_TESTS_LIBRARY_PARSE_CHECK_HH

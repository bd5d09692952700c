/**
 * @file
 * The exactness check of the standard library's process-wide parse:
 * a program compiled with KcmSystem::consultStandardLibrary() must
 * give the image, byte for byte, that a compile of the library text
 * gives. Shared by the stdlib, differential and fuzz suites so every
 * program they run is checked; the compiler suite uses its image
 * comparison.
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

/** Compile @p program + @p goal with the standard library, once from
 *  the shared parse and once from its text, and expect equal images. */
inline void
expectSharedLibraryParseExact(const std::string &program,
                              const std::string &goal,
                              const CompilerOptions &options = {})
{
    KcmOptions shared_options;
    shared_options.compiler = options;
    KcmSystem shared(shared_options);
    shared.consultStandardLibrary();
    shared.consult(program);

    Compiler text(options);
    text.addLibrary(standardLibrarySource());
    text.addProgram(program);
    text.setQuery(goal);

    EXPECT_EQ(savedImageBytes(shared.compileOnly(goal)),
              savedImageBytes(text.compile()))
        << "the shared library parse changed the image of: " << goal
        << "\nprogram:\n"
        << program;
}

} // namespace kcm

#endif // KCM_TESTS_LIBRARY_PARSE_CHECK_HH

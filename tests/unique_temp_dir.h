/**
 * @file
 * Per-process scratch directories for the tests that compile and
 * dlopen shared objects.  mkdtemp names stay unique across test
 * processes that ctest -j runs side by side, so no two processes
 * write or load the same .so path; every directory made here is
 * removed when the process exits.
 */

#ifndef UOV_TESTS_UNIQUE_TEMP_DIR_H
#define UOV_TESTS_UNIQUE_TEMP_DIR_H

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace uov {

/** A fresh, empty directory under ::testing::TempDir(). */
inline std::string
uniqueTempDir(const std::string &prefix)
{
    struct Made
    {
        std::vector<std::string> dirs;
        ~Made()
        {
            for (const std::string &d : dirs) {
                std::error_code ec;
                std::filesystem::remove_all(d, ec);
            }
        }
    };
    static Made made;
    std::string path = ::testing::TempDir() + prefix + "XXXXXX";
    if (::mkdtemp(path.data()) == nullptr)
        throw std::runtime_error("mkdtemp " + path + ": " +
                                 std::strerror(errno));
    made.dirs.push_back(path);
    return path;
}

} // namespace uov

#endif // UOV_TESTS_UNIQUE_TEMP_DIR_H

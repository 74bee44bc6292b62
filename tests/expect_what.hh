/**
 * @file
 * whatOf<E>(f): the what() string of the E that f() throws, so a test
 * can pin a check's exact message and not only its exception type.
 *
 *   EXPECT_EQ(whatOf<PanicError>([&] { m.at(2, 0); }),
 *             "panic: Matrix::at out of range");
 *
 * An exception of another type propagates and fails the test; a call
 * that throws nothing records a failure and returns "".
 */

#ifndef WANIFY_TESTS_EXPECT_WHAT_HH
#define WANIFY_TESTS_EXPECT_WHAT_HH

#include <gtest/gtest.h>

#include <string>

namespace wanify {
namespace test {

template <typename E, typename F>
std::string
whatOf(F &&f)
{
    try {
        f();
    } catch (const E &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected an exception, none was thrown";
    return "";
}

} // namespace test
} // namespace wanify

#endif // WANIFY_TESTS_EXPECT_WHAT_HH

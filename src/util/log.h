/**
 * @file
 * Error and status reporting, following gem5's panic()/fatal() split:
 *
 *  - panic():  a library bug — a condition that should never happen
 *              regardless of user input. Aborts (may dump core).
 *  - fatal():  a user error (bad configuration, invalid arguments).
 *              Exits with status 1.
 *  - warn():   something works but is suspicious or approximate.
 *  - inform(): status messages.
 */

#ifndef TALUS_UTIL_LOG_H
#define TALUS_UTIL_LOG_H

#include <sstream>
#include <string>

namespace talus {

namespace detail {

/** Formats the variadic arguments into one string via operator<<. */
template <typename... Args>
std::string
format(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);
[[noreturn]] void fatalImpl(const char* file, int line, const std::string& msg);
void warnImpl(const std::string& msg);
void informImpl(const std::string& msg);

} // namespace detail

/** Aborts with a message; use for internal invariant violations. */
#define talus_panic(...) \
    ::talus::detail::panicImpl(__FILE__, __LINE__, ::talus::detail::format(__VA_ARGS__))

/** Exits with an error message; use for invalid user configuration. */
#define talus_fatal(...) \
    ::talus::detail::fatalImpl(__FILE__, __LINE__, ::talus::detail::format(__VA_ARGS__))

/** Prints a warning to stderr; execution continues. */
#define talus_warn(...) \
    ::talus::detail::warnImpl(::talus::detail::format(__VA_ARGS__))

/** Prints an informational message to stderr. */
#define talus_inform(...) \
    ::talus::detail::informImpl(::talus::detail::format(__VA_ARGS__))

/**
 * Panics if @p cond is false; cheap enough to keep in release builds.
 * The failure path is a cold, out-of-line lambda, so a hot function
 * that inlines many checks carries no message-building code or stack
 * space for them.
 */
#define talus_assert(cond, ...)                                               \
    do {                                                                      \
        if (__builtin_expect(!(cond), 0)) {                                   \
            [&]() __attribute__((noinline, cold)) {                           \
                ::talus::detail::panicImpl(__FILE__, __LINE__,                \
                    std::string("assertion failed: " #cond " ") +             \
                    ::talus::detail::format(__VA_ARGS__));                    \
            }();                                                              \
        }                                                                     \
    } while (0)

} // namespace talus

#endif // TALUS_UTIL_LOG_H

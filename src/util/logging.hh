/**
 * @file
 * Status-message and error-termination helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (bugs in secproc itself) and aborts; fatal() is for user
 * errors (bad configuration, impossible parameters) and exits cleanly;
 * warn() and inform() report conditions without stopping.
 */

#ifndef SECPROC_UTIL_LOGGING_HH
#define SECPROC_UTIL_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace secproc::util
{

/** Severity levels understood by the message sink. */
enum class LogLevel
{
    Info,
    Warn,
    Error,
};

/**
 * Emit a formatted message to the log sink (stderr by default).
 *
 * @param level Message severity.
 * @param where Source location string, e.g. "cache.cc:120".
 * @param msg   Fully formatted message body.
 */
void logMessage(LogLevel level, const std::string &where,
                const std::string &msg);

/**
 * Internal: terminate after an unrecoverable internal error.
 * Prints the message and calls abort() so a core dump is produced.
 */
[[noreturn]] void panicImpl(const std::string &where,
                            const std::string &msg);

/**
 * Internal: terminate after an unrecoverable user error.
 * Prints the message and exits with status 1.
 */
[[noreturn]] void fatalImpl(const std::string &where,
                            const std::string &msg);

namespace detail
{

/** Fold a list of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace secproc::util

#define SECPROC_WHERE_ \
    (::secproc::util::detail::concat(__FILE__, ":", __LINE__))

/** Internal invariant violated: this is a secproc bug. Aborts. */
#define panic(...)                                                        \
    ::secproc::util::panicImpl(                                           \
        SECPROC_WHERE_, ::secproc::util::detail::concat(__VA_ARGS__))

/** User-caused unrecoverable error (bad config etc). Exits(1). */
#define fatal(...)                                                        \
    ::secproc::util::fatalImpl(                                           \
        SECPROC_WHERE_, ::secproc::util::detail::concat(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define warn(...)                                                         \
    ::secproc::util::logMessage(                                          \
        ::secproc::util::LogLevel::Warn, SECPROC_WHERE_,                  \
        ::secproc::util::detail::concat(__VA_ARGS__))

/** Report normal operating status. */
#define inform(...)                                                       \
    ::secproc::util::logMessage(                                          \
        ::secproc::util::LogLevel::Info, SECPROC_WHERE_,                  \
        ::secproc::util::detail::concat(__VA_ARGS__))

/** panic() unless the stated invariant holds. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if (cond) {                                                       \
            panic("panic condition (" #cond "): ", __VA_ARGS__);          \
        }                                                                 \
    } while (0)

/** fatal() unless the stated user-facing requirement holds. */
#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if (cond) {                                                       \
            fatal("fatal condition (" #cond "): ", __VA_ARGS__);          \
        }                                                                 \
    } while (0)

#endif // SECPROC_UTIL_LOGGING_HH

// Lightweight precondition / invariant checking.
//
// DSCT_CHECK is always on (library boundary contracts, cheap predicates).
// DSCT_DCHECK compiles out in NDEBUG builds (hot inner-loop invariants).
// DSCT_ENSURE rejects bad user input (files, options, flags): its message
// alone reaches the user, without the expression text and source location.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace dsct {

/// Thrown when a DSCT_CHECK fails. Deriving from std::logic_error keeps the
/// failure catchable in tests while signalling a programming/contract error.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what, std::string message = {})
      : std::logic_error(what),
        message_(message.empty() ? what : std::move(message)) {}

  /// The failure in the contract's own words — its message, or its
  /// expression when it has none — without the "check failed … at FILE:LINE"
  /// frame of what(). Input readers use it to re-report a contract that a
  /// record broke at that record's line.
  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {
[[noreturn]] inline void checkFailed(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str(), msg.empty() ? std::string(expr) : msg);
}
}  // namespace detail

}  // namespace dsct

#define DSCT_CHECK(expr)                                              \
  do {                                                                \
    if (!(expr))                                                      \
      ::dsct::detail::checkFailed(#expr, __FILE__, __LINE__, "");     \
  } while (0)

#define DSCT_CHECK_MSG(expr, msg)                                     \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream os_;                                         \
      os_ << msg;                                                     \
      ::dsct::detail::checkFailed(#expr, __FILE__, __LINE__, os_.str()); \
    }                                                                 \
  } while (0)

#define DSCT_ENSURE(expr, msg)                                        \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream os_;                                         \
      os_ << msg;                                                     \
      throw ::dsct::CheckError(os_.str());                            \
    }                                                                 \
  } while (0)

#ifdef NDEBUG
#define DSCT_DCHECK(expr) \
  do {                    \
  } while (0)
#else
#define DSCT_DCHECK(expr) DSCT_CHECK(expr)
#endif

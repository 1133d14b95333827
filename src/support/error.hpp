// Error types shared across the HMPI library.
//
// Every subsystem throws a subclass of hmpi::Error so that callers can catch
// library failures distinctly from std exceptions while still getting a
// std::exception-compatible what() string.
#pragma once

#include <stdexcept>
#include <string>

namespace hmpi {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid argument or configuration supplied by the caller.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Misuse of the message-passing layer (bad rank, tag, communicator, ...).
class MpError : public Error {
 public:
  explicit MpError(const std::string& what) : Error(what) {}
};

/// The simulated world detected that every runnable process is blocked.
class DeadlockError : public MpError {
 public:
  explicit DeadlockError(const std::string& what) : MpError(what) {}
};

/// A receive was posted against a peer that has (injected-fault) crashed and
/// can never satisfy it. Raised as soon as the receiver observes the crash,
/// instead of surfacing later as a DeadlockError.
class PeerFailedError : public MpError {
 public:
  PeerFailedError(const std::string& what, int peer_world_rank,
                  double failure_time)
      : MpError(what),
        peer_world_rank_(peer_world_rank),
        failure_time_(failure_time) {}

  /// World rank of the crashed peer.
  int peer_world_rank() const noexcept { return peer_world_rank_; }
  /// Virtual time at which the peer crashed.
  double failure_time() const noexcept { return failure_time_; }

 private:
  int peer_world_rank_ = -1;
  double failure_time_ = 0.0;
};

/// A blocked operation was interrupted because its communicator's context was
/// revoked (a surviving group member declared the group failed). The ULFM
/// MPI_Comm_revoke analogue: it propagates failure knowledge to members that
/// were blocked on healthy-but-escaped peers.
class RevokedError : public MpError {
 public:
  explicit RevokedError(const std::string& what) : MpError(what) {}
};

/// Internal control-flow exception that unwinds the body of a process killed
/// by an injected FaultPlan crash. World::run treats it as an expected event
/// (the run continues with the surviving processes), never as a failure.
class ProcessKilledError : public MpError {
 public:
  explicit ProcessKilledError(const std::string& what) : MpError(what) {}
};

/// Error in the performance-model definition language (lex/parse/sema/eval).
class PmdlError : public Error {
 public:
  PmdlError(const std::string& what, int line, int column)
      : Error("pmdl:" + std::to_string(line) + ":" + std::to_string(column) +
              ": " + what),
        line_(line),
        column_(column) {}
  explicit PmdlError(const std::string& what) : Error("pmdl: " + what) {}

  /// 1-based source line of the offending token, or 0 if not applicable.
  int line() const noexcept { return line_; }
  /// 1-based source column of the offending token, or 0 if not applicable.
  int column() const noexcept { return column_; }

 private:
  int line_ = 0;
  int column_ = 0;
};

/// Failure in the HMPI runtime proper (group management, recon, ...).
class RuntimeError : public Error {
 public:
  explicit RuntimeError(const std::string& what) : Error(what) {}
};

namespace support {

/// Throws InvalidArgument with `what` unless `cond` holds.
inline void require(bool cond, const std::string& what) {
  if (!cond) throw InvalidArgument(what);
}

}  // namespace support
}  // namespace hmpi

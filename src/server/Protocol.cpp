#include "server/Protocol.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace terracpp;
using namespace terracpp::server;

//===----------------------------------------------------------------------===//
// Raw transfers
//===----------------------------------------------------------------------===//

static bool writeAll(int Fd, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len > 0) {
    ssize_t N = ::send(Fd, P, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

namespace {
/// Tracks a receive deadline across multiple reads; -1 = no deadline.
class Deadline {
public:
  explicit Deadline(int TimeoutMs) {
    if (TimeoutMs >= 0)
      End = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(TimeoutMs);
    else
      Infinite = true;
  }

  /// Remaining milliseconds for poll(); -1 when unbounded, 0 when expired.
  int remainingMs() const {
    if (Infinite)
      return -1;
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    End - std::chrono::steady_clock::now())
                    .count();
    return Left > 0 ? static_cast<int>(Left) : 0;
  }

private:
  bool Infinite = false;
  std::chrono::steady_clock::time_point End;
};
} // namespace

/// Reads exactly \p Len bytes. \p Started is set once any byte arrives, so
/// the caller can distinguish clean EOF from a truncated frame.
static FrameStatus readAll(int Fd, void *Data, size_t Len, Deadline &D,
                           bool &Started) {
  char *P = static_cast<char *>(Data);
  while (Len > 0) {
    int Wait = D.remainingMs();
    if (Wait == 0)
      return FrameStatus::Timeout;
    struct pollfd PFd = {Fd, POLLIN, 0};
    int PR = ::poll(&PFd, 1, Wait);
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      return FrameStatus::Error;
    }
    if (PR == 0)
      return FrameStatus::Timeout;
    ssize_t N = ::recv(Fd, P, Len, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return FrameStatus::Error;
    }
    if (N == 0)
      return Started ? FrameStatus::Error : FrameStatus::Closed;
    Started = true;
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return FrameStatus::OK;
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

bool server::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > MaxFramePayload)
    return false;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  unsigned char Header[4] = {
      static_cast<unsigned char>(Len >> 24),
      static_cast<unsigned char>(Len >> 16),
      static_cast<unsigned char>(Len >> 8),
      static_cast<unsigned char>(Len),
  };
  // One header+payload buffer => one send for small frames (the common
  // case), keeping request/response latency to a single syscall pair.
  std::string Frame(reinterpret_cast<char *>(Header), 4);
  Frame += Payload;
  return writeAll(Fd, Frame.data(), Frame.size());
}

FrameStatus server::readFrame(int Fd, std::string &Payload, int TimeoutMs) {
  Deadline D(TimeoutMs);
  bool Started = false;
  unsigned char Header[4];
  FrameStatus St = readAll(Fd, Header, 4, D, Started);
  if (St != FrameStatus::OK)
    return St;
  uint32_t Len = (static_cast<uint32_t>(Header[0]) << 24) |
                 (static_cast<uint32_t>(Header[1]) << 16) |
                 (static_cast<uint32_t>(Header[2]) << 8) |
                 static_cast<uint32_t>(Header[3]);
  if (Len > MaxFramePayload)
    return FrameStatus::Error;
  Payload.resize(Len);
  if (Len == 0)
    return FrameStatus::OK;
  return readAll(Fd, Payload.data(), Len, D, Started);
}

bool server::writeMessage(int Fd, const json::Value &V) {
  return writeFrame(Fd, V.dump());
}

FrameStatus server::readMessage(int Fd, json::Value &Out, std::string &Err,
                                int TimeoutMs) {
  std::string Payload;
  FrameStatus St = readFrame(Fd, Payload, TimeoutMs);
  if (St != FrameStatus::OK) {
    if (St == FrameStatus::Error)
      Err = "frame read failed";
    return St;
  }
  if (!json::parse(Payload, Out, Err))
    return FrameStatus::Error;
  return FrameStatus::OK;
}

json::Value server::opRequest(const std::string &Op) {
  json::Value R = json::Value::object();
  R.set("op", json::Value::string(Op));
  return R;
}

json::Value server::okResponse() {
  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  return R;
}

json::Value server::errorResponse(const std::string &Message,
                                  const std::string &Diagnostics) {
  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(false));
  R.set("error", json::Value::string(Message));
  if (!Diagnostics.empty())
    R.set("diagnostics", json::Value::string(Diagnostics));
  return R;
}

json::Value server::errorResponseCode(const std::string &Code,
                                      const std::string &Message,
                                      const std::string &Diagnostics) {
  json::Value R = errorResponse(Message, Diagnostics);
  R.set("code", json::Value::string(Code));
  return R;
}

//===----------------------------------------------------------------------===//
// FrameReader
//===----------------------------------------------------------------------===//

FrameReader::Feed FrameReader::fill(int Fd) {
  if (Corrupt)
    return Feed::Error;
  char Chunk[16384];
  ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), MSG_DONTWAIT);
  if (N < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Feed::WouldBlock;
    if (errno == EINTR)
      return Feed::WouldBlock;
    return Feed::Error;
  }
  if (N == 0)
    return Feed::Eof;
  Buf.append(Chunk, static_cast<size_t>(N));
  return Feed::Ok;
}

bool FrameReader::next(std::string &Payload) {
  if (Corrupt)
    return false;
  size_t Avail = Buf.size() - Pos;
  if (Avail < 4)
    return false;
  const unsigned char *H =
      reinterpret_cast<const unsigned char *>(Buf.data() + Pos);
  uint32_t Len = (static_cast<uint32_t>(H[0]) << 24) |
                 (static_cast<uint32_t>(H[1]) << 16) |
                 (static_cast<uint32_t>(H[2]) << 8) | static_cast<uint32_t>(H[3]);
  if (Len > MaxFramePayload) {
    Corrupt = true;
    return false;
  }
  if (Avail < 4u + Len)
    return false;
  Payload.assign(Buf, Pos + 4, Len);
  Pos += 4u + Len;
  // Compact once the consumed prefix dominates, amortizing the memmove.
  if (Pos > 4096 && Pos * 2 > Buf.size()) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Unix-domain sockets
//===----------------------------------------------------------------------===//

static bool fillAddr(const std::string &Path, sockaddr_un &Addr,
                     std::string &Err) {
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return false;
  }
  memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

int server::connectUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  if (!fillAddr(Path, Addr, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "connect " + Path + ": " + strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int server::listenUnix(const std::string &Path, int Backlog, std::string &Err) {
  sockaddr_un Addr;
  if (!fillAddr(Path, Addr, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + strerror(errno);
    return -1;
  }
  ::unlink(Path.c_str()); // Stale socket from a previous run.
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "bind " + Path + ": " + strerror(errno);
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, Backlog) != 0) {
    Err = "listen " + Path + ": " + strerror(errno);
    ::close(Fd);
    ::unlink(Path.c_str());
    return -1;
  }
  return Fd;
}

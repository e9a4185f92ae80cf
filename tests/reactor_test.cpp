// The connection core (net/reactor.h) on its own, driven by a recording
// handler and raw loopback sockets: frames that share a segment with the
// peer's FIN are all delivered before the close hook, a gap in the inbound
// sequence is refused with ErrorMsg{400} and a close, a backlog past the
// queue bound evicts the connection and is counted, and the handler's tick
// sets the poll timeout.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include "net/protocol.h"
#include "net/reactor.h"

namespace antalloc {
namespace {

using namespace std::chrono_literals;

// Records every hook call in order. Hooks run on the poll thread; the test
// thread waits on the condition variable.
class RecordingHandler final : public Reactor::Handler {
 public:
  struct Event {
    std::uint64_t conn_id = 0;
    std::optional<std::uint64_t> job_id;  // a Subscribe; nullopt = on_close
  };

  explicit RecordingHandler(std::int64_t tick_ms = Reactor::kMaxPollMs)
      : tick_ms_(tick_ms) {}

  void on_message(std::uint64_t conn_id, const Message& m) override {
    const auto* sub = std::get_if<Subscribe>(&m);
    ASSERT_NE(sub, nullptr);
    record({conn_id, sub->job_id});
  }
  void on_close(std::uint64_t conn_id) override {
    record({conn_id, std::nullopt});
  }
  std::int64_t on_tick() override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++ticks_;
    return tick_ms_;
  }

  // Waits (bounded) until a close has been recorded; returns every event.
  std::vector<Event> wait_for_close() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, 10s, [this] {
      for (const Event& e : events_) {
        if (!e.job_id.has_value()) return true;
      }
      return false;
    });
    return events_;
  }

  // Waits (bounded) until at least `n` events are recorded.
  std::vector<Event> wait_for_events(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, 10s, [&] { return events_.size() >= n; });
    return events_;
  }

  std::uint64_t ticks() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ticks_;
  }

 private:
  void record(Event e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      events_.push_back(e);
    }
    cv_.notify_all();
  }

  const std::int64_t tick_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Event> events_;
  std::uint64_t ticks_ = 0;
};

// A blocking loopback socket to the reactor; `rcvbuf` > 0 shrinks its
// receive buffer before connecting.
int connect_to(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

// One send() call for the whole buffer (loopback takes small writes whole).
void send_once(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

void append(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> in) {
  out.insert(out.end(), in.begin(), in.end());
}

// The client side of a stream: the hello, then frames `seqs` carrying
// Subscribe{job_id = 100 + i}.
std::vector<std::uint8_t> client_stream(
    const std::vector<std::uint32_t>& seqs) {
  std::vector<std::uint8_t> bytes;
  append(bytes, encode_hello());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    append(bytes,
           encode_frame(Message{Subscribe{.job_id = 100 + i}}, seqs[i]));
  }
  return bytes;
}

// Reads until EOF and decodes everything after the server's hello.
std::vector<Message> read_to_eof(int fd) {
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.insert(buf.end(), chunk, chunk + n);
  }
  std::vector<Message> out;
  if (buf.size() < kHelloBytes) return out;
  check_hello(std::span<const std::uint8_t>(buf).first(kHelloBytes));
  std::size_t head = kHelloBytes;
  while (true) {
    std::size_t consumed = 0;
    const std::optional<Frame> frame = try_decode_frame(
        std::span<const std::uint8_t>(buf).subspan(head), &consumed);
    if (!frame.has_value()) break;
    head += consumed;
    out.push_back(decode_message(*frame));
  }
  return out;
}

TEST(Reactor, FramesSentWithTheFinAllArriveBeforeTheCloseHook) {
  RecordingHandler handler;
  Reactor reactor(handler, {});
  reactor.start();

  // Hello + three frames + FIN: one send, then close, so the data and the
  // FIN reach the reactor in the same poll event.
  const int fd = connect_to(reactor.port());
  send_once(fd, client_stream({0, 1, 2}));
  ::close(fd);

  const auto events = handler.wait_for_close();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(events[i].job_id.has_value()) << "event " << i;
    EXPECT_EQ(*events[i].job_id, 100 + i);
    EXPECT_EQ(events[i].conn_id, events[3].conn_id);
  }
  EXPECT_FALSE(events[3].job_id.has_value());
  reactor.stop();
}

TEST(Reactor, SequenceGapIsRefusedWith400ThenClosed) {
  RecordingHandler handler;
  Reactor reactor(handler, {});
  reactor.start();

  // seq 0 is delivered; seq 2 (1 was lost) must not be.
  const int fd = connect_to(reactor.port());
  send_once(fd, client_stream({0, 2}));
  const std::vector<Message> replies = read_to_eof(fd);
  ::close(fd);

  ASSERT_EQ(replies.size(), 1u);
  const auto* err = std::get_if<ErrorMsg>(&replies[0]);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, 400u);
  EXPECT_NE(err->message.find("sequence gap"), std::string::npos)
      << err->message;

  const auto events = handler.wait_for_close();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_TRUE(events[0].job_id.has_value());
  EXPECT_EQ(*events[0].job_id, 100u);
  EXPECT_FALSE(events[1].job_id.has_value());
  reactor.stop();
}

TEST(Reactor, BacklogPastTheQueueBoundEvictsAndCounts) {
  RecordingHandler handler;
  Reactor reactor(handler,
                  {.max_queue_bytes = 8u << 10, .send_buffer_bytes = 4096});
  reactor.start();

  // A peer that says one frame (so its id is known) and never reads.
  const int fd = connect_to(reactor.port(), /*rcvbuf=*/4096);
  send_once(fd, client_stream({0}));
  const auto first = handler.wait_for_events(1);
  ASSERT_EQ(first.size(), 1u);
  const std::uint64_t conn = first[0].conn_id;

  const std::vector<std::uint8_t> payload(1024, 0x5a);
  FrameSink::Send last = FrameSink::Send::kOk;
  int sends = 0;
  while (last == FrameSink::Send::kOk && sends < 100'000) {
    last = reactor.send_message(conn, MsgType::kSnapshot, payload);
    ++sends;
  }
  EXPECT_EQ(last, FrameSink::Send::kEvicted) << "after " << sends << " sends";
  EXPECT_EQ(reactor.stats().evictions, 1u);
  EXPECT_EQ(reactor.send_message(conn, MsgType::kSnapshot, payload),
            FrameSink::Send::kGone);

  // The poll thread reaps the evicted connection through the close hook.
  const auto events = handler.wait_for_close();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].conn_id, conn);
  EXPECT_FALSE(events[1].job_id.has_value());
  ::close(fd);
  reactor.stop();
}

TEST(Reactor, TickSetsThePollTimeout) {
  // A handler that wants a tick every 5ms gets them with no socket traffic
  // at all; at the 200ms default the same window would see a handful.
  RecordingHandler handler(/*tick_ms=*/5);
  Reactor reactor(handler, {});
  reactor.start();
  std::this_thread::sleep_for(600ms);
  reactor.stop();
  EXPECT_GE(handler.ticks(), 20u);
}

}  // namespace
}  // namespace antalloc

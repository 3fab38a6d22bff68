// Real async storage backend suite: AsyncFileBackend on both mechanisms
// (io_uring when the kernel offers it, pread/pwrite fallback always),
// UringFileTier sync + async round trips, O_DIRECT handling, and the
// file-format interchange contract with FileTier.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <chrono>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "io/uring_backend.hpp"
#include "tiers/file_tier.hpp"
#include "util/key_escape.hpp"

namespace mlpo {
namespace {

namespace fs = std::filesystem;

fs::path unique_dir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path p = fs::temp_directory_path() /
               ("mlpo_uring_" + tag + "_" + info->name() + "_" +
                std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

std::vector<u8> pattern_bytes(std::size_t n, u8 seed) {
  std::vector<u8> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<u8>(seed + i * 131u + (i >> 8));
  }
  return v;
}

// --- AsyncFileBackend on raw fds -------------------------------------------

class AsyncFileBackendTest : public ::testing::TestWithParam<bool> {
 protected:
  // Param = force_fallback. The uring variant is skipped on kernels that
  // refuse io_uring_setup (seccomp'd CI), the fallback variant always runs.
  void SetUp() override {
    if (!GetParam() && !AsyncFileBackend::kernel_supports_uring()) {
      GTEST_SKIP() << "kernel refuses io_uring; fallback variant covers this";
    }
    dir_ = unique_dir(GetParam() ? "fb" : "ur");
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  AsyncFileBackend::Options opts() const {
    AsyncFileBackend::Options o;
    o.queue_depth = 8;
    o.fallback_workers = 2;
    o.force_fallback = GetParam();
    return o;
  }

  fs::path dir_;
};

TEST_P(AsyncFileBackendTest, WriteThenReadRoundTrips) {
  AsyncFileBackend be(opts());
  EXPECT_EQ(be.using_uring(), !GetParam() &&
                                  AsyncFileBackend::kernel_supports_uring());
  const fs::path file = dir_ / "blob";
  const int fd = ::open(file.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);

  const auto payload = pattern_bytes(257 * 1024 + 13, 7);
  std::promise<std::pair<int, u64>> wp;
  be.write(fd, payload.data(), payload.size(), 0,
           [&](int err, u64 n) { wp.set_value({err, n}); });
  const auto [werr, wn] = wp.get_future().get();
  EXPECT_EQ(werr, 0);
  EXPECT_EQ(wn, payload.size());

  std::vector<u8> back(payload.size(), 0);
  std::promise<std::pair<int, u64>> rp;
  be.read(fd, back.data(), back.size(), 0,
          [&](int err, u64 n) { rp.set_value({err, n}); });
  const auto [rerr, rn] = rp.get_future().get();
  EXPECT_EQ(rerr, 0);
  EXPECT_EQ(rn, payload.size());
  EXPECT_EQ(back, payload);
  ::close(fd);
}

TEST_P(AsyncFileBackendTest, ConcurrentOpsAllComplete) {
  AsyncFileBackend be(opts());
  const fs::path file = dir_ / "strided";
  const int fd = ::open(file.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);

  // More ops than the queue depth so the slab/queue applies backpressure.
  constexpr int kOps = 32;
  constexpr u64 kChunk = 64 * 1024;
  std::vector<std::vector<u8>> chunks;
  std::vector<std::future<int>> done;
  for (int i = 0; i < kOps; ++i) {
    chunks.push_back(pattern_bytes(kChunk, static_cast<u8>(i)));
    auto p = std::make_shared<std::promise<int>>();
    done.push_back(p->get_future());
    be.write(fd, chunks.back().data(), kChunk, i * kChunk,
             [p](int err, u64) { p->set_value(err); });
  }
  for (auto& f : done) EXPECT_EQ(f.get(), 0);
  // A callback fires before its op leaves the in-flight count.
  be.wait_idle();
  EXPECT_EQ(be.in_flight(), 0u);

  for (int i = 0; i < kOps; ++i) {
    std::vector<u8> back(kChunk);
    std::promise<int> p;
    be.read(fd, back.data(), kChunk, i * kChunk,
            [&](int err, u64) { p.set_value(err); });
    EXPECT_EQ(p.get_future().get(), 0);
    EXPECT_EQ(back, chunks[i]);
  }
  ::close(fd);
}

TEST_P(AsyncFileBackendTest, MinLenAllowsEofTruncatedTail) {
  AsyncFileBackend be(opts());
  const fs::path file = dir_ / "tail";
  const int fd = ::open(file.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  const auto payload = pattern_bytes(5000, 3);  // not a 4096 multiple
  ASSERT_EQ(::pwrite(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));

  // Block-rounded read (8192) with min_len = real size: the EOF-truncated
  // tail must be reported as success with exactly the real bytes.
  std::vector<u8> back(8192, 0xee);
  std::promise<std::pair<int, u64>> p;
  be.read(fd, back.data(), back.size(), 0,
          [&](int err, u64 n) { p.set_value({err, n}); },
          /*min_len=*/payload.size());
  const auto [err, n] = p.get_future().get();
  EXPECT_EQ(err, 0);
  EXPECT_EQ(n, payload.size());
  EXPECT_EQ(std::memcmp(back.data(), payload.data(), payload.size()), 0);

  // Without min_len the same short read is an error (EIO-style truncation
  // must not be silent).
  std::promise<std::pair<int, u64>> p2;
  be.read(fd, back.data(), back.size(), 0,
          [&](int err2, u64 n2) { p2.set_value({err2, n2}); });
  EXPECT_NE(p2.get_future().get().first, 0);
  ::close(fd);
}

TEST_P(AsyncFileBackendTest, ReadErrorIsReportedNotSwallowed) {
  AsyncFileBackend be(opts());
  std::vector<u8> buf(64);
  std::promise<int> p;
  be.read(/*fd=*/-1, buf.data(), buf.size(), 0,
          [&](int err, u64) { p.set_value(err); });
  EXPECT_EQ(p.get_future().get(), EBADF);
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, AsyncFileBackendTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "fallback" : "uring";
                         });

// --- UringFileTier ----------------------------------------------------------

struct TierVariant {
  bool force_fallback;
  bool direct;
};

class UringFileTierTest : public ::testing::TestWithParam<TierVariant> {
 protected:
  void SetUp() override {
    const TierVariant v = GetParam();
    if (!v.force_fallback && !AsyncFileBackend::kernel_supports_uring()) {
      GTEST_SKIP() << "kernel refuses io_uring";
    }
    dir_ = unique_dir(std::string(v.force_fallback ? "fb" : "ur") +
                      (v.direct ? "_direct" : ""));
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  UringFileTier make_tier() const {
    UringFileTier::Options o;
    o.queue_depth = 8;
    o.fallback_workers = 2;
    o.force_fallback = GetParam().force_fallback;
    o.direct = GetParam().direct;
    return UringFileTier("nvme0", dir_, o);
  }

  fs::path dir_;
};

TEST_P(UringFileTierTest, SyncRoundTripAndMetadata) {
  UringFileTier tier = make_tier();
  // Unaligned size on purpose — O_DIRECT variants must bounce correctly.
  const auto payload = pattern_bytes(3 * 4096 + 77, 11);
  tier.write("sg/0/state", payload);
  EXPECT_TRUE(tier.exists("sg/0/state"));
  EXPECT_EQ(tier.object_size("sg/0/state"), payload.size());

  std::vector<u8> back(payload.size(), 0);
  tier.read("sg/0/state", back);
  EXPECT_EQ(back, payload);

  // Overwrite with a different (smaller) object: tmp+rename replacement
  // must leave exactly the new bytes, never a stale tail.
  const auto smaller = pattern_bytes(1000, 42);
  tier.write("sg/0/state", smaller);
  EXPECT_EQ(tier.object_size("sg/0/state"), smaller.size());
  std::vector<u8> back2(smaller.size(), 0);
  tier.read("sg/0/state", back2);
  EXPECT_EQ(back2, smaller);

  tier.erase("sg/0/state");
  EXPECT_FALSE(tier.exists("sg/0/state"));
  EXPECT_THROW(tier.read("sg/0/state", back2), std::out_of_range);
}

TEST_P(UringFileTierTest, AsyncRoundTripSettlesOffThread) {
  UringFileTier tier = make_tier();
  ASSERT_TRUE(tier.supports_async());
  const auto payload = pattern_bytes(2 * 4096 + 5, 23);

  std::promise<std::exception_ptr> wp;
  tier.write_async("k", payload, 0,
                   [&](std::exception_ptr e) { wp.set_value(e); });
  EXPECT_EQ(wp.get_future().get(), nullptr);

  std::vector<u8> back(payload.size(), 0);
  std::promise<std::exception_ptr> rp;
  tier.read_async("k", back, 0,
                  [&](std::exception_ptr e) { rp.set_value(e); });
  EXPECT_EQ(rp.get_future().get(), nullptr);
  EXPECT_EQ(back, payload);

  // Async read of a missing key delivers the exception through the
  // callback, not a throw on the submitting thread.
  std::promise<std::exception_ptr> mp;
  tier.read_async("missing", back, 0,
                  [&](std::exception_ptr e) { mp.set_value(e); });
  std::exception_ptr err = mp.get_future().get();
  ASSERT_NE(err, nullptr);
  EXPECT_THROW(std::rethrow_exception(err), std::out_of_range);
}

TEST_P(UringFileTierTest, SlashAndUnderscoreKeysDoNotCollide) {
  // Regression for the '/'→'_' aliasing bug: distinct keys must map to
  // distinct files under the injective escape scheme.
  UringFileTier tier = make_tier();
  const auto a = pattern_bytes(512, 1);
  const auto b = pattern_bytes(512, 2);
  tier.write("a/b", a);
  tier.write("a_b", b);
  std::vector<u8> back(512);
  tier.read("a/b", back);
  EXPECT_EQ(back, a);
  tier.read("a_b", back);
  EXPECT_EQ(back, b);
  tier.erase("a/b");
  EXPECT_FALSE(tier.exists("a/b"));
  EXPECT_TRUE(tier.exists("a_b"));
}

TEST_P(UringFileTierTest, BouncePoolServesDirectIoWithoutHeapChurn) {
  UringFileTier tier = make_tier();
  const auto payload = pattern_bytes(4096 + 1, 9);  // forces a bounce if direct
  for (int i = 0; i < 4; ++i) {
    tier.write("churn", payload);
    std::vector<u8> back(payload.size());
    tier.read("churn", back);
    EXPECT_EQ(back, payload);
  }
  // Transfers within the bounce slab must never fall back to the heap —
  // this is the same alloc-churn contract the engines are gated on.
  EXPECT_EQ(tier.bounce_stats().heap_fallbacks, 0u);
  // A sync call returns when its completion fires, but the completion
  // closure (which owns the bounce lease) is torn down moments later on
  // the backend thread — wait for that teardown before checking balance.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (tier.bounce_stats().bytes_in_use != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(tier.bounce_stats().bytes_in_use, 0u);
}

TEST_P(UringFileTierTest, FileFormatInterchangeableWithFileTier) {
  // Objects written by FileTier must read back through UringFileTier over
  // the same root, and vice versa — same escaping, same plain-file layout.
  const auto payload = pattern_bytes(6 * 4096 + 321, 55);
  {
    FileTier plain("plain", dir_);
    plain.write("model/layer.0/qkv", payload);
  }
  UringFileTier tier = make_tier();
  ASSERT_TRUE(tier.exists("model/layer.0/qkv"));
  ASSERT_EQ(tier.object_size("model/layer.0/qkv"), payload.size());
  std::vector<u8> back(payload.size(), 0);
  tier.read("model/layer.0/qkv", back);
  EXPECT_EQ(back, payload);

  const auto reply = pattern_bytes(2048, 66);
  tier.write("model/layer.1/proj", reply);
  FileTier plain("plain", dir_);
  ASSERT_TRUE(plain.exists("model/layer.1/proj"));
  std::vector<u8> back2(reply.size(), 0);
  plain.read("model/layer.1/proj", back2);
  EXPECT_EQ(back2, reply);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, UringFileTierTest,
    ::testing::Values(TierVariant{false, false}, TierVariant{true, false},
                      TierVariant{false, true}, TierVariant{true, true}),
    [](const auto& info) {
      return std::string(info.param.force_fallback ? "fallback" : "uring") +
             (info.param.direct ? "Direct" : "");
    });

}  // namespace
}  // namespace mlpo

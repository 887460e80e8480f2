// The checkpoint subsystem's own contract: the container format rejects
// every torn, bit-flipped, or version-skewed file (never UB, never a silent
// load), the store publishes atomically and falls back past torn
// generations, the section codecs round-trip real engine state exactly,
// and the event stream tails a growing file without misparsing a partial
// write. The committed corpus under tests/data/ckpt/ pins the on-disk
// format: those bytes must stay loadable (or stay rejected) forever.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/event_stream.hpp"
#include "ckpt/snapshot.hpp"
#include "common/rng.hpp"
#include "detect/centralized.hpp"
#include "detect/offline/replay.hpp"
#include "detect/slicing.hpp"
#include "tests/test_util.hpp"

namespace hpd::ckpt {
namespace {

namespace fs = std::filesystem;

// Injected by tests/CMakeLists.txt.
const std::string kCorpusDir = HPD_CKPT_DATA;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("hpd-ckpt-test-" +
             std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << p;
}

/// Real detector state: a central sink fed half of a random execution.
/// Returns the image at the feeding cut, so queues/reorder/occurrence
/// counters are all mid-flight (the interesting serialization case).
DetectorImage central_image(std::uint64_t seed) {
  Rng rng(seed);
  testutil::ExecGenOptions opt;
  opt.processes = 4;
  opt.steps = 120;
  const auto exec = testutil::random_execution(rng, opt);
  const auto order = detect::offline::arrival_order(exec, std::nullopt);

  detect::CentralSink sink(0, {0, 1, 2, 3}, {});
  std::uint64_t fed = 0;
  for (const auto& [p, i] : order) {
    if (fed >= order.size() / 2) {
      break;
    }
    const Interval& x = exec.procs[p].intervals[i];
    x.origin == 0 ? sink.local_interval(x) : sink.report(x);
    ++fed;
  }
  DetectorImage img;
  img.kind = EngineKind::kCentral;
  img.consumed_events = fed;
  img.central = sink.snapshot();
  return img;
}

CheckpointData sample_data(std::uint64_t seed) {
  CheckpointData data;
  data.meta.engine_kind = static_cast<std::uint8_t>(EngineKind::kCentral);
  data.meta.consumed_events = 60;
  data.meta.occurrences_emitted = 3;
  data.detector = encode_detector(central_image(seed));
  EpochTable table;
  table.epochs = {{0, 1}, {1, 4}, {2, 2}};
  data.session = encode_epochs(table);
  return data;
}

// ---- Container format -------------------------------------------------------

TEST(CkptContainer, RoundTripPreservesEverySection) {
  const CheckpointData data = sample_data(11);
  const auto bytes = encode_checkpoint_file(data);
  const CheckpointData back = decode_checkpoint_file(bytes);
  EXPECT_EQ(back.meta.format_version, kFormatVersion);
  EXPECT_EQ(back.meta.engine_kind, data.meta.engine_kind);
  EXPECT_EQ(back.meta.consumed_events, data.meta.consumed_events);
  EXPECT_EQ(back.meta.occurrences_emitted, data.meta.occurrences_emitted);
  EXPECT_EQ(back.detector, data.detector);
  EXPECT_EQ(back.session, data.session);
  EXPECT_EQ(back.ft, data.ft);
}

TEST(CkptContainer, DetectorImageSurvivesReencode) {
  // decode(encode(img)) re-encodes to the identical bytes: the codec has
  // one canonical form, so nothing is lost or reordered in flight.
  const DetectorImage img = central_image(23);
  const auto bytes = encode_detector(img);
  const DetectorImage back = decode_detector(bytes);
  EXPECT_EQ(back.kind, img.kind);
  EXPECT_EQ(back.consumed_events, img.consumed_events);
  EXPECT_EQ(encode_detector(back), bytes);
}

TEST(CkptContainer, RestoredSinkContinuesExactly) {
  const DetectorImage img = central_image(31);
  const DetectorImage back = decode_detector(encode_detector(img));
  detect::CentralSink restored(0, {0, 1, 2, 3}, {});
  restored.restore(back.central);
  EXPECT_EQ(restored.snapshot().engine.queues.size(),
            img.central.engine.queues.size());
  EXPECT_EQ(restored.occurrences(), img.central.occurrence_count);
}

TEST(CkptContainer, RejectsBadMagic) {
  auto bytes = encode_checkpoint_file(sample_data(5));
  bytes[0] ^= 0xFF;
  EXPECT_THROW(decode_checkpoint_file(bytes), CkptError);
}

TEST(CkptContainer, RejectsMissingEndAsTorn) {
  const auto bytes = encode_checkpoint_file(sample_data(5));
  // Strip the END frame (its encoded size is stable: 1-byte varint length,
  // 1-byte payload 0xFF, 4-byte CRC).
  std::vector<std::uint8_t> torn(bytes.begin(), bytes.end() - 6);
  EXPECT_THROW(decode_checkpoint_file(torn), CkptError);
}

TEST(CkptContainer, RejectsTrailingBytes) {
  auto bytes = encode_checkpoint_file(sample_data(5));
  bytes.push_back(0x00);
  EXPECT_THROW(decode_checkpoint_file(bytes), CkptError);
}

TEST(CkptContainer, RejectsVersionSkew) {
  CheckpointData data = sample_data(5);
  data.meta.format_version = kFormatVersion + 1;
  const auto bytes = encode_checkpoint_file(data);
  EXPECT_THROW(decode_checkpoint_file(bytes), CkptError);
}

TEST(CkptContainer, EveryTruncationIsRejected) {
  const auto bytes = encode_checkpoint_file(sample_data(7));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(decode_checkpoint_file(cut), CkptError) << "len=" << len;
  }
}

TEST(CkptContainer, EveryBitFlipIsRejected) {
  // CRC-32C detects all single-bit errors, the magic check covers the
  // unframed prefix, and misparsed lengths land in truncation/overrun
  // paths — so no single flipped bit may ever load.
  const auto bytes = encode_checkpoint_file(sample_data(9));
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = bytes;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(decode_checkpoint_file(flipped), CkptError)
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

// ---- Section codecs ---------------------------------------------------------

TEST(CkptSections, SessionStateRoundTrip) {
  SessionState s;
  s.self = 2;
  s.epoch = 5;
  s.send.push_back({1, 9, {{7, {0xAA, 0xBB}, 3, 2}, {8, {0xCC}, 1, 2}}});
  s.recv.push_back({0, 3, 41, {43, 44, 47}});
  s.peer_epochs = {{0, 3}, {1, 2}};
  const SessionState back = decode_session(encode_session(s));
  EXPECT_EQ(back.self, s.self);
  EXPECT_EQ(back.epoch, s.epoch);
  ASSERT_EQ(back.send.size(), 1u);
  EXPECT_EQ(back.send[0].peer, 1);
  EXPECT_EQ(back.send[0].next_seq, 9u);
  ASSERT_EQ(back.send[0].unacked.size(), 2u);
  EXPECT_EQ(back.send[0].unacked[0].body, (std::vector<std::uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(back.send[0].unacked[0].attempts, 3u);
  EXPECT_EQ(back.send[0].unacked[0].dst_epoch, 2u);
  ASSERT_EQ(back.recv.size(), 1u);
  EXPECT_EQ(back.recv[0].cum, 41u);
  EXPECT_EQ(back.recv[0].above, (std::vector<SeqNum>{43, 44, 47}));
  EXPECT_EQ(back.peer_epochs, s.peer_epochs);
}

TEST(CkptSections, FtStateRoundTrip) {
  FtState f;
  f.heartbeat.parent = 3;
  f.heartbeat.is_root = false;
  f.heartbeat.attached = true;
  f.heartbeat.root_path = {0, 1, 3};
  f.heartbeat.children = {5, 6};
  f.reattach.mode = 1;
  f.reattach.forbidden = 4;
  f.reattach.retries = 2;
  f.reattach.searching = true;
  const FtState back = decode_ft(encode_ft(f));
  EXPECT_EQ(back.heartbeat.parent, 3);
  EXPECT_TRUE(back.heartbeat.attached);
  EXPECT_EQ(back.heartbeat.root_path, f.heartbeat.root_path);
  EXPECT_EQ(back.heartbeat.children, f.heartbeat.children);
  EXPECT_EQ(back.reattach.mode, 1);
  EXPECT_EQ(back.reattach.forbidden, 4);
  EXPECT_EQ(back.reattach.retries, 2);
  EXPECT_TRUE(back.reattach.searching);
}

TEST(CkptSections, EpochTableRoundTrip) {
  EpochTable t;
  t.epochs = {{0, 1}, {3, 7}, {11, 2}};
  const EpochTable back = decode_epochs(encode_epochs(t));
  EXPECT_EQ(back.epochs, t.epochs);
}

TEST(CkptSections, SectionDecodersRejectTruncation) {
  const auto bytes = encode_epochs({{{0, 1}, {1, 2}}});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(decode_epochs(cut), CkptError) << "len=" << len;
  }
}

// ---- CheckpointStore --------------------------------------------------------

TEST(CkptStore, WriteThenLoadLatest) {
  TempDir dir;
  CheckpointStore store(dir.path().string(), "t");
  const std::uint64_t g1 = store.write(sample_data(1));
  EXPECT_EQ(g1, 1u);
  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.generation, 1u);
  EXPECT_EQ(loaded->meta.consumed_events, 60u);
  EXPECT_EQ(store.counters().writes, 1u);
  EXPECT_GT(store.counters().bytes_written, 0u);
}

TEST(CkptStore, EmptyDirectoryLoadsNothing) {
  TempDir dir;
  CheckpointStore store(dir.path().string(), "t");
  EXPECT_FALSE(store.load_latest().has_value());
}

TEST(CkptStore, PrunesBeyondKeepGenerations) {
  TempDir dir;
  CheckpointStore store(dir.path().string(), "t");
  for (int i = 0; i < 5; ++i) {
    store.write(sample_data(1));
  }
  std::size_t ckpt_files = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    if (e.path().extension() == ".ckpt") {
      ++ckpt_files;
    }
  }
  EXPECT_EQ(ckpt_files, CheckpointStore::kKeepGenerations);
  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.generation, 5u);
}

TEST(CkptStore, TornNewestFallsBackOneGeneration) {
  TempDir dir;
  std::uint64_t g2 = 0;
  {
    CheckpointStore store(dir.path().string(), "t");
    store.write(sample_data(1));
    g2 = store.write(sample_data(2));
  }
  // Tear the newest file the way a crashed writer would: cut it short.
  const fs::path newest =
      dir.path() / ("t-" + std::to_string(g2) + ".ckpt");
  auto bytes = read_file(newest);
  bytes.resize(bytes.size() / 2);
  write_file(newest, bytes);

  CheckpointStore reopened(dir.path().string(), "t");
  const auto loaded = reopened.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.generation, g2 - 1);
  EXPECT_EQ(reopened.counters().torn_writes_skipped, 1u);
  EXPECT_EQ(reopened.counters().restore_generation, g2 - 1);
}

TEST(CkptStore, CorruptNewestFallsBackOneGeneration) {
  TempDir dir;
  std::uint64_t g2 = 0;
  {
    CheckpointStore store(dir.path().string(), "t");
    store.write(sample_data(1));
    g2 = store.write(sample_data(2));
  }
  const fs::path newest =
      dir.path() / ("t-" + std::to_string(g2) + ".ckpt");
  auto bytes = read_file(newest);
  bytes[bytes.size() / 2] ^= 0x10;  // one flipped bit mid-payload
  write_file(newest, bytes);

  CheckpointStore reopened(dir.path().string(), "t");
  const auto loaded = reopened.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.generation, g2 - 1);
  EXPECT_EQ(reopened.counters().torn_writes_skipped, 1u);
}

TEST(CkptStore, MissingManifestFallsBackToDirectoryScan) {
  TempDir dir;
  {
    CheckpointStore store(dir.path().string(), "t");
    store.write(sample_data(1));
    store.write(sample_data(2));
  }
  fs::remove(dir.path() / "t.manifest");
  CheckpointStore reopened(dir.path().string(), "t");
  const auto loaded = reopened.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.generation, 2u);
  // And the next write must not collide with existing generations.
  EXPECT_GT(reopened.next_generation(), 2u);
}

TEST(CkptStore, GenerationsResumeAcrossReopen) {
  TempDir dir;
  {
    CheckpointStore store(dir.path().string(), "t");
    store.write(sample_data(1));
  }
  CheckpointStore reopened(dir.path().string(), "t");
  EXPECT_EQ(reopened.write(sample_data(2)), 2u);
}

// ---- Event stream -----------------------------------------------------------

std::vector<Interval> exec_events(std::uint64_t seed, std::size_t procs,
                                  std::size_t steps) {
  Rng rng(seed);
  testutil::ExecGenOptions opt;
  opt.processes = procs;
  opt.steps = steps;
  const auto exec = testutil::random_execution(rng, opt);
  std::vector<Interval> events;
  for (const auto& [p, i] : detect::offline::arrival_order(exec, std::nullopt)) {
    events.push_back(exec.procs[p].intervals[i]);
  }
  return events;
}

TEST(CkptEventStream, RoundTripIncludingCompletedAt) {
  TempDir dir;
  const fs::path file = dir.path() / "s.evt";
  auto events = exec_events(3, 3, 80);
  ASSERT_FALSE(events.empty());
  events[0].completed_at = 12.625;  // must survive (wire drops it; ckpt not)
  {
    EventStreamWriter w(file.string(), 3);
    for (const Interval& x : events) {
      w.append(x);
    }
    w.finish();
    EXPECT_EQ(w.events_written(), events.size());
  }
  EventStreamReader r(file.string());
  std::vector<Interval> back;
  Interval ev;
  while (r.next(ev) == EventStreamReader::Status::kEvent) {
    back.push_back(ev);
  }
  EXPECT_TRUE(r.have_header());
  EXPECT_EQ(r.num_processes(), 3u);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].origin, events[i].origin);
    EXPECT_EQ(back[i].seq, events[i].seq);
    EXPECT_EQ(back[i].lo, events[i].lo);
    EXPECT_EQ(back[i].hi, events[i].hi);
    EXPECT_EQ(back[i].completed_at, events[i].completed_at) << i;
  }
  // Past END the reader keeps reporting kEnd, never kWait.
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kEnd);
}

TEST(CkptEventStream, TailReaderWaitsThenCatchesUp) {
  TempDir dir;
  const fs::path file = dir.path() / "s.evt";
  const auto events = exec_events(5, 3, 60);
  ASSERT_GE(events.size(), 4u);

  EventStreamWriter w(file.string(), 3);
  w.append(events[0]);

  EventStreamReader r(file.string());
  Interval ev;
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kEvent);
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kWait);  // nothing yet
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kWait);  // still nothing

  w.append(events[1]);
  w.append(events[2]);
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kEvent);
  EXPECT_EQ(ev.seq, events[1].seq);
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kEvent);
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kWait);

  w.finish();
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kEnd);
  EXPECT_EQ(r.events_read(), 3u);
}

TEST(CkptEventStream, ReaderWaitsThroughPartialMagic) {
  // A tail reader racing the producer's very first write sees a torso of
  // the magic — that is kWait, not corruption.
  TempDir dir;
  const fs::path file = dir.path() / "s.evt";
  {
    EventStreamWriter w(file.string(), 2);
    w.finish();
  }
  const auto full = read_file(file);
  const fs::path racing = dir.path() / "racing.evt";
  write_file(racing, {full.begin(), full.begin() + 3});

  EventStreamReader r(racing.string());
  Interval ev;
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kWait);
  write_file(racing, full);  // producer finished its writes
  EXPECT_EQ(r.next(ev), EventStreamReader::Status::kEnd);
}

TEST(CkptEventStream, RejectsWrongMagicAndCorruption) {
  TempDir dir;
  const fs::path file = dir.path() / "s.evt";
  const auto events = exec_events(7, 3, 60);
  {
    EventStreamWriter w(file.string(), 3);
    for (const Interval& x : events) {
      w.append(x);
    }
    w.finish();
  }
  const auto bytes = read_file(file);

  {
    auto bad = bytes;
    bad[0] ^= 0xFF;
    const fs::path p = dir.path() / "badmagic.evt";
    write_file(p, bad);
    EventStreamReader r(p.string());
    Interval ev;
    EXPECT_THROW(r.next(ev), CkptError);
  }
  {
    auto bad = bytes;
    bad[bytes.size() / 2] ^= 0x04;
    const fs::path p = dir.path() / "bitflip.evt";
    write_file(p, bad);
    EventStreamReader r(p.string());
    Interval ev;
    bool threw = false;
    try {
      while (r.next(ev) == EventStreamReader::Status::kEvent) {
      }
    } catch (const CkptError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }
}

TEST(CkptEventStream, HeaderProcessCountIsBounded) {
  TempDir dir;
  for (const std::uint64_t n : {kMaxStreamProcesses, kMaxStreamProcesses + 1,
                                std::uint64_t{1} << 40}) {
    SCOPED_TRACE(n);
    const fs::path p = dir.path() / ("n" + std::to_string(n) + ".evt");
    {
      EventStreamWriter w(p.string(), n);
      w.finish();
    }
    EventStreamReader r(p.string());
    Interval ev;
    if (n <= kMaxStreamProcesses) {
      EXPECT_EQ(r.next(ev), EventStreamReader::Status::kEnd);
      EXPECT_EQ(r.num_processes(), n);
    } else {
      EXPECT_THROW(r.next(ev), CkptError);
      EXPECT_FALSE(r.have_header());
    }
  }
}

// ---- Committed corpus -------------------------------------------------------
//
// The corpus pins the on-disk format across releases: these bytes were
// written by the current writer and committed; any codec change that stops
// loading them (or starts loading the corrupt ones) is a format break.

TEST(CkptCorpus, ValidFilesLoad) {
  for (const char* name :
       {"valid-central.ckpt", "valid-slicing.ckpt", "valid-hier.ckpt"}) {
    const fs::path p = fs::path(kCorpusDir) / name;
    ASSERT_TRUE(fs::exists(p)) << p;
    const CheckpointData data = decode_checkpoint_file(read_file(p));
    EXPECT_EQ(data.meta.format_version, kFormatVersion) << name;
    EXPECT_GT(data.meta.consumed_events, 0u) << name;
    const DetectorImage img = decode_detector(data.detector);
    EXPECT_EQ(static_cast<std::uint8_t>(img.kind), data.meta.engine_kind)
        << name;
  }
}

TEST(CkptCorpus, TornAndCorruptFilesStayRejected) {
  for (const char* name : {"torn.ckpt", "bitflip.ckpt"}) {
    const fs::path p = fs::path(kCorpusDir) / name;
    ASSERT_TRUE(fs::exists(p)) << p;
    EXPECT_THROW(decode_checkpoint_file(read_file(p)), CkptError) << name;
  }
}

TEST(CkptCorpus, CommittedEventStreamReplays) {
  const fs::path p = fs::path(kCorpusDir) / "pulse.evt";
  ASSERT_TRUE(fs::exists(p));
  EventStreamReader r(p.string());
  Interval ev;
  std::size_t events = 0;
  while (r.next(ev) == EventStreamReader::Status::kEvent) {
    ++events;
  }
  EXPECT_TRUE(r.have_header());
  EXPECT_EQ(r.num_processes(), 7u);
  EXPECT_EQ(events, 84u);
}

}  // namespace
}  // namespace hpd::ckpt

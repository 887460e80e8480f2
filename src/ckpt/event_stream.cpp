#include "ckpt/event_stream.hpp"

#include <cstring>

#include "ckpt/interval_codec.hpp"
#include "wire/codec.hpp"

namespace hpd::ckpt {

namespace {

constexpr char kStreamMagic[8] = {'H', 'P', 'D', 'E', 'V', 'T', 'S', '1'};

constexpr std::uint8_t kTagHeader = 0x00;
constexpr std::uint8_t kTagEvent = 0x01;
constexpr std::uint8_t kTagStreamEnd = 0xFF;

}  // namespace

// ---- Writer -----------------------------------------------------------------

EventStreamWriter::EventStreamWriter(const std::string& path,
                                     std::size_t num_processes)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!out_) {
    throw CkptError("ckpt: cannot create event stream " + path);
  }
  out_.write(kStreamMagic, sizeof(kStreamMagic));
  wire::Encoder e;
  e.put_u8(kTagHeader);
  e.put_varint(kStreamVersion);
  e.put_varint(num_processes);
  write_frame(e.take());
}

void EventStreamWriter::write_frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> framed;
  wire::append_frame(framed, payload);
  out_.write(reinterpret_cast<const char*>(framed.data()),
             static_cast<std::streamsize>(framed.size()));
  if (!out_.flush()) {
    throw CkptError("ckpt: write to event stream " + path_ + " failed");
  }
}

void EventStreamWriter::append(const Interval& x) {
  wire::Encoder e;
  e.put_u8(kTagEvent);
  internal::put_interval_full(e, x);
  write_frame(e.take());
  events_ += 1;
}

void EventStreamWriter::finish() {
  if (finished_) {
    return;
  }
  wire::Encoder e;
  e.put_u8(kTagStreamEnd);
  write_frame(e.take());
  finished_ = true;
}

// ---- Reader -----------------------------------------------------------------

EventStreamReader::EventStreamReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) {
    throw CkptError("ckpt: cannot open event stream " + path);
  }
}

bool EventStreamReader::fill() {
  // A tailing reader keeps hitting EOF; clear the state bits so later
  // appends by the producer become readable.
  in_.clear();
  char buf[1 << 16];
  in_.read(buf, sizeof(buf));
  const std::streamsize n = in_.gcount();
  if (n <= 0) {
    return false;
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(buf);
  std::size_t off = 0;
  if (!checked_magic_) {
    // Accumulate the 8 magic bytes before any frame parsing: a tailing
    // reader can race the producer's very first write and see a prefix.
    while (magic_seen_ < sizeof(kStreamMagic) &&
           off < static_cast<std::size_t>(n)) {
      if (bytes[off] != static_cast<std::uint8_t>(kStreamMagic[magic_seen_])) {
        throw CkptError("ckpt: bad event stream magic in " + path_);
      }
      magic_seen_ += 1;
      off += 1;
    }
    if (magic_seen_ < sizeof(kStreamMagic)) {
      return false;  // still waiting for the rest of the magic
    }
    checked_magic_ = true;
  }
  frames_.feed({bytes + off, static_cast<std::size_t>(n) - off});
  return static_cast<std::size_t>(n) > off;
}

EventStreamReader::Status EventStreamReader::next(Interval& out) {
  if (saw_end_) {
    return Status::kEnd;
  }
  try {
    for (;;) {
      std::optional<std::vector<std::uint8_t>> payload = frames_.next();
      if (!payload.has_value()) {
        if (!fill()) {
          return Status::kWait;
        }
        continue;
      }
      if (payload->empty()) {
        throw CkptError("ckpt: empty event stream frame in " + path_);
      }
      const std::uint8_t tag = (*payload)[0];
      wire::Decoder d({payload->data() + 1, payload->size() - 1});
      if (!have_header_) {
        if (tag != kTagHeader) {
          throw CkptError("ckpt: event stream " + path_ +
                          " does not start with a HEADER frame");
        }
        const std::uint64_t version = d.get_varint();
        if (version != kStreamVersion) {
          throw CkptError("ckpt: unsupported event stream version " +
                          std::to_string(version));
        }
        const std::uint64_t processes = d.get_varint();
        if (processes > kMaxStreamProcesses) {
          // A literal message: string temporaries here would enlarge the
          // stack frame of this per-event function.
          throw CkptError(
              "ckpt: event stream HEADER declares more processes than "
              "kMaxStreamProcesses");
        }
        num_processes_ = static_cast<std::size_t>(processes);
        if (!d.exhausted()) {
          throw CkptError("ckpt: trailing bytes in event stream HEADER");
        }
        have_header_ = true;
        continue;
      }
      switch (tag) {
        case kTagHeader:
          throw CkptError("ckpt: duplicate event stream HEADER in " + path_);
        case kTagEvent:
          out = internal::get_interval_full(d);
          if (!d.exhausted()) {
            throw CkptError("ckpt: trailing bytes in event frame");
          }
          events_ += 1;
          return Status::kEvent;
        case kTagStreamEnd:
          if (!d.exhausted()) {
            throw CkptError("ckpt: event stream END carries payload");
          }
          saw_end_ = true;
          return Status::kEnd;
        default:
          break;  // unknown tag: CRC-checked, skipped (forward compat)
      }
    }
  } catch (const wire::FrameError& err) {
    throw CkptError("ckpt: corrupt event stream " + path_ + ": " +
                    err.what());
  } catch (const wire::DecodeError& err) {
    throw CkptError("ckpt: malformed event stream frame in " + path_ + ": " +
                    err.what());
  }
}

}  // namespace hpd::ckpt

#include "trace/mb_trace.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "support/check.h"
#include "support/schema.h"

namespace mb::trace {

namespace {

constexpr char kMagic[4] = {'M', 'B', 'T', 'R'};
constexpr auto kVersion =
    static_cast<std::uint32_t>(support::kTraceSchema.version);

template <typename T>
void put_le(char* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

template <typename T>
T get_le(const char* in) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(static_cast<unsigned char>(in[i])) << (8 * i);
  return v;
}

template <typename T>
void write_le(std::ostream& os, T v) {
  char buf[sizeof(T)];
  put_le(buf, v);
  os.write(buf, sizeof(T));
}

void read_exact(std::istream& is, char* buf, std::size_t n) {
  is.read(buf, static_cast<std::streamsize>(n));
  support::check(static_cast<std::size_t>(is.gcount()) == n, "read_mb_trace",
                 "truncated file");
}

template <typename T>
T read_le(std::istream& is) {
  char buf[sizeof(T)];
  read_exact(is, buf, sizeof(T));
  return get_le<T>(buf);
}

void write_string(std::ostream& os, const std::string& s) {
  support::check(s.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "write_mb_trace", "string too long");
  write_le(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is, std::uint32_t max_len) {
  const auto len = read_le<std::uint32_t>(is);
  if (len > max_len)
    support::fail("read_mb_trace",
                  "implausible string length " + std::to_string(len));
  std::string s(len, '\0');
  if (len > 0) read_exact(is, s.data(), len);
  return s;
}

/// Bytes from the read position to the end of a seekable stream, or 0
/// when the stream cannot seek. The position is restored.
std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();
  is.seekg(here);
  return end == std::istream::pos_type(-1)
             ? 0
             : static_cast<std::uint64_t>(end - here);
}

}  // namespace

void write_record(std::ostream& os, const MbTraceRecord& r) {
  char buf[kMbTraceRecordBytes];
  put_le(buf, r.rank);
  put_le(buf + 4, static_cast<std::uint8_t>(r.kind));
  put_le(buf + 5, r.label_id);
  put_le(buf + 9, r.bytes);
  put_le(buf + 17, std::bit_cast<std::uint64_t>(r.t0));
  put_le(buf + 25, std::bit_cast<std::uint64_t>(r.t1));
  os.write(buf, sizeof(buf));
}

MbTraceRecord read_record(std::istream& is) {
  char buf[kMbTraceRecordBytes];
  read_exact(is, buf, sizeof(buf));
  const auto kind = get_le<std::uint8_t>(buf + 4);
  support::check(kind <= static_cast<std::uint8_t>(EventKind::kFault),
                 "read_mb_trace", "unknown event kind in record");
  return {get_le<std::uint32_t>(buf), static_cast<EventKind>(kind),
          get_le<std::uint32_t>(buf + 5), get_le<std::uint64_t>(buf + 9),
          std::bit_cast<double>(get_le<std::uint64_t>(buf + 17)),
          std::bit_cast<double>(get_le<std::uint64_t>(buf + 25))};
}

std::uint32_t LabelTable::intern(support::Label label) {
  const auto [it, inserted] =
      ids_.try_emplace(label, static_cast<std::uint32_t>(labels_.size()));
  if (inserted) labels_.push_back(label.str());
  return it->second;
}

MbTraceWriter::MbTraceWriter(std::ostream& os, const MbTraceMeta& meta,
                             const std::vector<std::string>& string_table,
                             std::uint64_t record_count)
    : os_(os), declared_(record_count) {
  os_.write(kMagic, 4);
  write_le(os_, kVersion);
  write_string(os_, meta.tool_version);
  write_le(os_, meta.seed);
  write_le(os_, meta.total_ranks);
  write_le(os_, meta.dropped);
  support::check(
      meta.sampled_ranks.size() <= std::numeric_limits<std::uint32_t>::max(),
      "write_mb_trace", "too many sampled ranks");
  write_le(os_, static_cast<std::uint32_t>(meta.sampled_ranks.size()));
  for (const std::uint32_t r : meta.sampled_ranks) write_le(os_, r);
  support::check(
      string_table.size() <= std::numeric_limits<std::uint32_t>::max(),
      "write_mb_trace", "label table too large");
  write_le(os_, static_cast<std::uint32_t>(string_table.size()));
  for (const auto& s : string_table) write_string(os_, s);
  write_le(os_, record_count);
}

void MbTraceWriter::append(const MbTraceRecord& r) {
  support::check(written_ < declared_, "write_mb_trace",
                 "more records appended than declared");
  write_record(os_, r);
  ++written_;
}

void MbTraceWriter::finish() {
  support::check(written_ == declared_, "write_mb_trace",
                 "declared " + std::to_string(declared_) + " records, wrote " +
                     std::to_string(written_));
  os_.flush();
  support::check(os_.good(), "write_mb_trace", "stream write failed");
}

void write_mb_trace(std::ostream& os, const Trace& trace,
                    const MbTraceMeta& meta) {
  LabelTable table;
  std::vector<std::uint32_t> label_of(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    label_of[i] = table.intern(trace.records()[i].label);
  MbTraceWriter writer(os, meta, table.labels(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Record& r = trace.records()[i];
    writer.append({r.rank, r.kind, label_of[i], r.bytes, r.t0, r.t1});
  }
  writer.finish();
}

MbTraceFile read_mb_trace(std::istream& is) {
  char magic[4];
  read_exact(is, magic, 4);
  support::check(std::memcmp(magic, kMagic, 4) == 0, "read_mb_trace",
                 "not an mb-trace file (bad magic)");
  const auto version = read_le<std::uint32_t>(is);
  support::check(version == kVersion, "read_mb_trace",
                 "unsupported mb-trace version " + std::to_string(version));

  MbTraceFile file;
  file.meta.tool_version = read_string(is, 1u << 10);
  file.meta.seed = read_le<std::uint64_t>(is);
  file.meta.total_ranks = read_le<std::uint32_t>(is);
  support::check(file.meta.total_ranks <= kMaxTraceRanks, "read_mb_trace",
                 "implausible total_ranks " +
                     std::to_string(file.meta.total_ranks));
  file.meta.dropped = read_le<std::uint64_t>(is);
  // Header counts are claims until their entries are read: both lists
  // grow as entries arrive, so a short file fails as truncated instead
  // of allocating what its header declares.
  const auto sampled = read_le<std::uint32_t>(is);
  support::check(sampled <= kMaxTraceRanks, "read_mb_trace",
                 "implausible sampled-rank count");
  // The ids are strictly ascending and, when total_ranks is known, below
  // it: the only lists the sink's sampling writes.
  std::vector<std::uint32_t>& ids = file.meta.sampled_ranks;
  for (std::uint32_t i = 0; i < sampled; ++i) {
    const auto id = read_le<std::uint32_t>(is);
    const auto fail_at = [i, id](const std::string& why) {
      support::fail("read_mb_trace", "sampled rank " + std::to_string(i) +
                                         ": rank " + std::to_string(id) +
                                         " " + why);
    };
    if (file.meta.total_ranks > 0 && id >= file.meta.total_ranks)
      fail_at("is not below " + std::to_string(file.meta.total_ranks));
    if (!ids.empty() && id <= ids.back())
      fail_at("does not follow rank " + std::to_string(ids.back()) +
              " in ascending order");
    ids.push_back(id);
  }

  const auto strings = read_le<std::uint32_t>(is);
  FileLabels labels("read_mb_trace", "label");
  std::vector<support::Label> table;
  std::string text;
  for (std::uint32_t i = 0; i < strings; ++i) {
    const auto len = read_le<std::uint32_t>(is);
    labels.check_length(len, i);
    text.resize(len);
    read_exact(is, text.data(), len);
    table.push_back(labels.intern(text, i));
  }

  const std::uint32_t rank_limit =
      file.meta.total_ranks > 0 ? file.meta.total_ranks : kMaxTraceRanks;
  const auto count = read_le<std::uint64_t>(is);
  // The count is a claim: reserve no more records than the rest of a
  // seekable input holds, and let a non-seekable one grow as it reads.
  file.trace.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, bytes_left(is) / kMbTraceRecordBytes)));
  for (std::uint64_t i = 0; i < count; ++i) {
    const MbTraceRecord rec = read_record(is);
    const auto fail_at = [i](const std::string& why) {
      support::fail("read_mb_trace",
                    "record " + std::to_string(i) + ": " + why);
    };
    if (rec.rank >= rank_limit)
      fail_at("rank " + std::to_string(rec.rank) + " is not below " +
              std::to_string(rank_limit));
    const std::string_view why = interval_error(rec.t0, rec.t1);
    if (!why.empty()) fail_at(std::string(why));
    support::check(rec.label_id < table.size(), "read_mb_trace",
                   "label id out of range");
    file.trace.add({rec.rank, rec.t0, rec.t1, rec.kind, table[rec.label_id],
                    rec.bytes});
  }
  if (!file.meta.tool_version.empty())
    file.trace.set_provenance(file.meta.tool_version, file.meta.seed);
  return file;
}

bool is_mb_trace(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  char magic[4] = {};
  is.read(magic, 4);
  const bool got4 = is.gcount() == 4;
  is.clear();
  is.seekg(pos);
  return got4 && std::memcmp(magic, kMagic, 4) == 0;
}

}  // namespace mb::trace

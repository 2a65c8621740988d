#include "trace/mb_trace.h"

#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "support/check.h"
#include "support/schema.h"

namespace mb::trace {

namespace {

constexpr char kMagic[4] = {'M', 'B', 'T', 'R'};
constexpr auto kVersion =
    static_cast<std::uint32_t>(support::kTraceSchema.version);

void write_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

void write_u32(std::ostream& os, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i)
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(buf, 4);
}

void write_u64(std::ostream& os, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i)
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(buf, 8);
}

void write_f64(std::ostream& os, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(os, bits);
}

void write_string(std::ostream& os, const std::string& s) {
  support::check(s.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "write_mb_trace", "string too long");
  write_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void read_exact(std::istream& is, char* buf, std::size_t n) {
  is.read(buf, static_cast<std::streamsize>(n));
  support::check(static_cast<std::size_t>(is.gcount()) == n, "read_mb_trace",
                 "truncated file");
}

std::uint8_t read_u8(std::istream& is) {
  char c = 0;
  read_exact(is, &c, 1);
  return static_cast<std::uint8_t>(c);
}

std::uint32_t read_u32(std::istream& is) {
  char buf[4];
  read_exact(is, buf, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  return v;
}

std::uint64_t read_u64(std::istream& is) {
  char buf[8];
  read_exact(is, buf, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  return v;
}

double read_f64(std::istream& is) {
  const std::uint64_t bits = read_u64(is);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string read_string(std::istream& is, std::uint32_t max_len) {
  const std::uint32_t len = read_u32(is);
  if (len > max_len)
    support::fail("read_mb_trace",
                  "implausible string length " + std::to_string(len));
  std::string s(len, '\0');
  if (len > 0) read_exact(is, s.data(), len);
  return s;
}

}  // namespace

MbTraceWriter::MbTraceWriter(std::ostream& os, const MbTraceMeta& meta,
                             const std::vector<std::string>& string_table,
                             std::uint64_t record_count)
    : os_(os), declared_(record_count) {
  os_.write(kMagic, 4);
  write_u32(os_, kVersion);
  write_string(os_, meta.tool_version);
  write_u64(os_, meta.seed);
  write_u32(os_, meta.total_ranks);
  write_u64(os_, meta.dropped);
  support::check(
      meta.sampled_ranks.size() <= std::numeric_limits<std::uint32_t>::max(),
      "write_mb_trace", "too many sampled ranks");
  write_u32(os_, static_cast<std::uint32_t>(meta.sampled_ranks.size()));
  for (const std::uint32_t r : meta.sampled_ranks) write_u32(os_, r);
  support::check(
      string_table.size() <= std::numeric_limits<std::uint32_t>::max(),
      "write_mb_trace", "label table too large");
  write_u32(os_, static_cast<std::uint32_t>(string_table.size()));
  for (const auto& s : string_table) write_string(os_, s);
  write_u64(os_, record_count);
}

void MbTraceWriter::append(std::uint32_t rank, EventKind kind,
                           std::uint32_t label_id, std::uint64_t bytes,
                           double t0, double t1) {
  support::check(written_ < declared_, "write_mb_trace",
                 "more records appended than declared");
  write_u32(os_, rank);
  write_u8(os_, static_cast<std::uint8_t>(kind));
  write_u32(os_, label_id);
  write_u64(os_, bytes);
  write_f64(os_, t0);
  write_f64(os_, t1);
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
  std::vector<std::string> table;
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::uint32_t> label_of(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& label = trace.records()[i].label;
    auto [it, inserted] =
        ids.emplace(label, static_cast<std::uint32_t>(table.size()));
    if (inserted) table.push_back(label);
    label_of[i] = it->second;
  }
  MbTraceWriter writer(os, meta, table, trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& r = trace.records()[i];
    writer.append(r.rank, r.kind, label_of[i], r.bytes, r.t0, r.t1);
  }
  writer.finish();
}

MbTraceFile read_mb_trace(std::istream& is) {
  char magic[4];
  read_exact(is, magic, 4);
  support::check(std::memcmp(magic, kMagic, 4) == 0, "read_mb_trace",
                 "not an mb-trace file (bad magic)");
  const std::uint32_t version = read_u32(is);
  support::check(version == kVersion, "read_mb_trace",
                 "unsupported mb-trace version " + std::to_string(version));

  MbTraceFile file;
  file.meta.tool_version = read_string(is, 1u << 10);
  file.meta.seed = read_u64(is);
  file.meta.total_ranks = read_u32(is);
  file.meta.dropped = read_u64(is);
  const std::uint32_t sampled = read_u32(is);
  support::check(sampled <= (1u << 24), "read_mb_trace",
                 "implausible sampled-rank count");
  file.meta.sampled_ranks.reserve(sampled);
  for (std::uint32_t i = 0; i < sampled; ++i)
    file.meta.sampled_ranks.push_back(read_u32(is));

  const std::uint32_t strings = read_u32(is);
  support::check(strings <= (1u << 24), "read_mb_trace",
                 "implausible label-table size");
  std::vector<std::string> table;
  table.reserve(strings);
  for (std::uint32_t i = 0; i < strings; ++i)
    table.push_back(read_string(is, 1u << 16));

  const std::uint64_t count = read_u64(is);
  for (std::uint64_t i = 0; i < count; ++i) {
    Record r;
    r.rank = read_u32(is);
    const std::uint8_t kind = read_u8(is);
    support::check(kind <= static_cast<std::uint8_t>(EventKind::kFault),
                   "read_mb_trace", "unknown event kind in record");
    r.kind = static_cast<EventKind>(kind);
    const std::uint32_t label_id = read_u32(is);
    support::check(label_id < table.size(), "read_mb_trace",
                   "label id out of range");
    r.label = table[label_id];
    r.bytes = read_u64(is);
    r.t0 = read_f64(is);
    r.t1 = read_f64(is);
    file.trace.add(std::move(r));
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

#include "core/result_cache.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "support/hash.h"
#include "support/json.h"
#include "support/schema.h"

namespace mb::core {

namespace fs = std::filesystem;

std::uint64_t CacheKey::hash() const {
  support::Hasher h;
  h.str(support::kCacheEntrySchema.name)
      .u64(static_cast<std::uint64_t>(support::kCacheEntrySchema.version))
      .str(tool_version)
      .str(suite)
      .str(platform)
      .str(point)
      .u64(seed)
      .u64(fault_plan_hash);
  return h.digest();
}

std::string CacheKey::digest() const { return support::hex64(hash()); }

ResultCache::ResultCache() = default;

ResultCache::ResultCache(std::string dir, bool enabled,
                         std::uint64_t max_bytes)
    : dir_(std::move(dir)),
      enabled_(enabled && !dir_.empty()),
      max_bytes_(max_bytes) {}

std::string ResultCache::entry_path(const CacheKey& key) const {
  // Two-hex-digit fan-out keeps directories small on big campaigns.
  const std::string digest = key.digest();
  return dir_ + "/" + digest.substr(0, 2) + "/" + digest + ".json";
}

std::optional<std::vector<double>> ResultCache::lookup(
    const CacheKey& key) const {
  if (!enabled_) return std::nullopt;
  try {
    std::ifstream in(entry_path(key));
    if (!in) return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    const support::JsonValue doc = support::parse_json(text.str());
    // A foreign name or version is another build's entry: a plain miss.
    if (!support::has_schema(doc, support::kCacheEntrySchema))
      return std::nullopt;
    // The entry echoes its full key; require an exact match so a digest
    // collision (or a hand-edited file) reads as a miss, never as a wrong
    // result. Seeds/hashes are stored as strings to keep 64-bit values
    // exact through the double-based JSON number path.
    const support::JsonValue& k = doc.at("key");
    if (k.at("tool_version").as_string() != key.tool_version ||
        k.at("suite").as_string() != key.suite ||
        k.at("platform").as_string() != key.platform ||
        k.at("point").as_string() != key.point ||
        k.at("seed").as_string() != std::to_string(key.seed) ||
        k.at("fault_plan_hash").as_string() !=
            support::hex64(key.fault_plan_hash)) {
      return std::nullopt;
    }
    std::vector<double> samples;
    for (const support::JsonValue& s : doc.at("samples").as_array()) {
      samples.push_back(s.as_number());
    }
    return samples;
  } catch (const std::exception&) {
    // Unparsable / truncated / wrong shape: quarantine rather than delete,
    // so the broken file stays inspectable but is never re-parsed. Rename
    // failures (e.g. the file vanished) still degrade to a plain miss.
    try {
      const fs::path path = entry_path(key);
      fs::rename(path, fs::path(path.string() + ".quarantined"));
      ++quarantined_;
    } catch (const std::exception&) {
    }
    return std::nullopt;
  }
}

std::uint64_t ResultCache::evict() const {
  if (!enabled_ || max_bytes_ == 0) return 0;
  struct Entry {
    fs::file_time_type mtime;
    std::string path;
    std::uint64_t size = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  try {
    for (const auto& item : fs::recursive_directory_iterator(dir_)) {
      if (!item.is_regular_file()) continue;
      // Only live entries participate: quarantined files and in-flight
      // `.tmp.<pid>` writes are neither budgeted nor removed.
      if (item.path().extension() != ".json") continue;
      Entry e;
      e.mtime = item.last_write_time();
      e.path = item.path().string();
      e.size = item.file_size();
      total += e.size;
      entries.push_back(std::move(e));
    }
    if (total <= max_bytes_) return 0;
    // Oldest first; equal mtimes (coarse clocks) tie-break on path so the
    // eviction order is deterministic.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                if (a.mtime != b.mtime) return a.mtime < b.mtime;
                return a.path < b.path;
              });
    std::uint64_t evicted = 0;
    for (const Entry& e : entries) {
      if (total <= max_bytes_) break;
      fs::remove(e.path);
      total -= e.size;
      ++evicted;
    }
    return evicted;
  } catch (const std::exception&) {
    return 0;  // a failing scan must never fail the campaign
  }
}

bool ResultCache::store(const CacheKey& key,
                        const std::vector<double>& samples) const {
  if (!enabled_) return false;
  try {
    const fs::path path = entry_path(key);
    fs::create_directories(path.parent_path());

    support::JsonWriter w;
    support::begin_document(w, support::kCacheEntrySchema);
    w.key("key").begin_object();
    w.field("tool_version", key.tool_version);
    w.field("suite", key.suite);
    w.field("platform", key.platform);
    w.field("point", key.point);
    w.field("seed", std::to_string(key.seed));
    w.field("fault_plan_hash", support::hex64(key.fault_plan_hash));
    w.end_object();
    w.key("samples").begin_array();
    for (double s : samples) w.value(s);
    w.end_array();
    w.end_object();

    // Atomic publish: concurrent campaigns see either no entry or a
    // complete one. The pid suffix keeps two processes' temp files apart.
    const fs::path tmp =
        path.string() + ".tmp." + std::to_string(::getpid());
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) return false;
      out << std::move(w).str() << "\n";
      if (!out) return false;
    }
    fs::rename(tmp, path);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace mb::core

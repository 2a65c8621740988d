// Content-addressed cache for simulation outcomes.
//
// A campaign re-run after touching one parameter point should only
// re-simulate that point. Every measurement task is addressed by a
// CacheKey — the full set of inputs that determine its samples: tool
// version, suite, platform, canonical parameter-point string, seed and
// fault-plan hash. The stable FNV-1a digest of that key (support/hash.h)
// names a JSON fragment under the cache directory
// (`<dir>/<2 hex>/<16 hex>.json`, mb-cache-entry v1); a hit replays the
// stored samples verbatim, so cached and fresh campaigns render
// byte-identical reports.
//
// Invalidation is purely key-driven: bumping the project version (or any
// other key field) changes the digest and the old entry is simply never
// looked up again. After changing simulator models *without* a version
// bump, clear the cache directory (or pass --no-cache).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mb::core {

/// Everything that determines a task's samples. Two tasks with equal keys
/// are interchangeable; any field difference yields a different digest.
struct CacheKey {
  std::string tool_version;  ///< support::version(); bump to invalidate.
  std::string suite;         ///< e.g. "membench", "tune-magicfilter".
  std::string platform;      ///< platform registry key.
  std::string point;         ///< canonical parameter-point string.
  std::uint64_t seed = 0;
  std::uint64_t fault_plan_hash = 0;  ///< 0 when no faults are injected.

  /// Stable across processes, builds and platforms (support::Hasher).
  std::uint64_t hash() const;
  /// hash() as 16 lowercase hex digits — the entry's on-disk name.
  std::string digest() const;
};

/// Filesystem-backed sample store. All I/O failures degrade to a miss
/// (lookup) or a dropped write (store) — a broken cache can slow a
/// campaign down but never change or fail it.
///
/// Hygiene: an entry that exists but cannot be parsed (truncated write,
/// disk damage, hand-editing) is *quarantined* — renamed to
/// `<entry>.quarantined` so the evidence survives for inspection while
/// every later lookup is an honest miss instead of a re-parse. Entries
/// that parse but echo a different key (digest collision) or carry a
/// foreign schema/version stay plain misses and are left untouched.
/// With a nonzero `max_bytes`, evict() trims live `*.json` entries
/// oldest-first (mtime, then path, so ties are deterministic) until the
/// cache fits; quarantined and in-flight temp files are never counted
/// or removed.
class ResultCache {
 public:
  /// Disabled cache: lookup always misses, store drops.
  ResultCache();
  /// `max_bytes` 0 means unbounded (no eviction).
  ResultCache(std::string dir, bool enabled, std::uint64_t max_bytes = 0);

  bool enabled() const { return enabled_; }
  const std::string& dir() const { return dir_; }
  std::uint64_t max_bytes() const { return max_bytes_; }

  /// Returns the stored samples iff an entry with this digest exists,
  /// parses cleanly, and echoes exactly this key (digest collisions and
  /// corrupt entries read as misses; corrupt ones are also quarantined).
  std::optional<std::vector<double>> lookup(const CacheKey& key) const;

  /// Persists samples for `key` (atomic tmp + rename; concurrent writers
  /// of the same key are harmless — last rename wins with equal content).
  /// Returns false if disabled or the write failed.
  bool store(const CacheKey& key, const std::vector<double>& samples) const;

  /// Removes the oldest live entries until the cache fits max_bytes().
  /// No-op (returns 0) when disabled or unbounded; otherwise returns the
  /// number of entries removed.
  std::uint64_t evict() const;

  /// Corrupt entries this instance has quarantined so far.
  std::uint64_t quarantined() const { return quarantined_; }

 private:
  std::string entry_path(const CacheKey& key) const;

  std::string dir_;
  bool enabled_ = false;
  std::uint64_t max_bytes_ = 0;
  /// Mutated by lookup(), which is logically read-only for callers.
  mutable std::uint64_t quarantined_ = 0;
};

}  // namespace mb::core

#pragma once
/// \file name_index.hpp
/// Open-addressing hash index from a name to the id of the element that
/// owns the name (a Cell or a Net of one Database).
///
/// The index holds no strings. A slot is 8 bytes, the name's 32-bit hash
/// and the owner's id, so eight share a cache line. A lookup compares the
/// candidate against the name its owner already holds, through the
/// caller's `name_of(id)`. Slots are values, so a copied or moved index
/// stays valid beside a copied or moved owner container.
///
/// Linear probing over a power-of-two table kept at most half full. The
/// table grows by doubling and rehashes from the stored hashes alone.
/// Nothing iterates the index, so neither the hash function nor the slot
/// order can reach any output.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

namespace mrlg {

class NameIndex {
public:
    struct Slot {
        std::uint32_t hash = 0;  ///< The name's hash32().
        std::int32_t id = -1;    ///< Owner id; -1 marks a free slot.
    };

    /// Names resolved per block by find_batch(): enough lookups in flight
    /// to hide a cache miss each, few enough for the stack.
    static constexpr std::size_t kBatch = 128;

    static std::uint32_t hash32(std::string_view name) {
        constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
        std::uint64_t h = name.size() * kMul;
        const char* p = name.data();
        std::size_t n = name.size();
        for (; n >= 8; p += 8, n -= 8) {
            std::uint64_t w = 0;
            std::memcpy(&w, p, 8);
            h = (h ^ w) * kMul;
            h ^= h >> 32;
        }
        if (n > 0) {
            std::uint64_t w = 0;
            std::memcpy(&w, p, n);
            h = (h ^ w) * kMul;
        }
        // splitmix64 finalizer: every input bit reaches the low bits the
        // table indexes with.
        h ^= h >> 30;
        h *= 0xBF58476D1CE4E5B9ULL;
        h ^= h >> 27;
        h *= 0x94D049BB133111EBULL;
        h ^= h >> 31;
        return static_cast<std::uint32_t>(h);
    }

    std::size_t size() const { return size_; }
    /// Table slots (a power of two, or 0 before the first insert).
    std::size_t capacity() const { return slots_.size(); }
    /// Exact bytes the table holds: capacity() × sizeof(Slot).
    std::size_t bytes() const { return capacity() * sizeof(Slot); }

    /// Grows the table so that `n` names fit without another rehash.
    void presize(std::size_t n) {
        if (capacity_for(n) > capacity()) {
            rehash(capacity_for(n));
        }
    }

    /// The id stored under `name`, or -1. `name_of(id)` returns the name
    /// the owner with that id holds.
    template <typename NameOf>
    std::int32_t find(std::string_view name, const NameOf& name_of) const {
        if (slots_.empty()) {
            return -1;
        }
        const std::uint32_t h = hash32(name);
        return probe(name, h, h & mask(), name_of);
    }

    /// Stores `id` under `name`. Returns false, and changes nothing, when
    /// the name is already present.
    template <typename NameOf>
    bool insert(std::string_view name, std::int32_t id,
                const NameOf& name_of) {
        const std::uint32_t h = hash32(name);
        if (!slots_.empty() && probe(name, h, h & mask(), name_of) >= 0) {
            return false;
        }
        if (capacity_for(size_ + 1) > capacity()) {
            rehash(capacity_for(size_ + 1));
        }
        slots_[free_slot(h)] = Slot{h, id};
        ++size_;
        return true;
    }

    /// out[i] = Id{find(names[i])} for every i; `out` is as long as
    /// `names`. Each block of kBatch names is hashed and its home slots
    /// prefetched first, then `prefetch(id)` is called for every first
    /// hash match, and only then are names compared. A large design's
    /// lookups thus overlap their cache misses instead of paying them one
    /// after another.
    template <typename Id, typename NameOf, typename Prefetch>
    void find_batch(std::span<const std::string_view> names,
                    std::span<Id> out, const NameOf& name_of,
                    const Prefetch& prefetch) const {
        if (slots_.empty()) {
            std::fill(out.begin(), out.end(), Id{-1});
            return;
        }
        std::array<std::uint32_t, kBatch> hashes{};
        std::array<std::size_t, kBatch> starts{};
        for (std::size_t b = 0; b < names.size(); b += kBatch) {
            const std::size_t n = std::min(kBatch, names.size() - b);
            for (std::size_t i = 0; i < n; ++i) {
                hashes[i] = hash32(names[b + i]);
                __builtin_prefetch(&slots_[hashes[i] & mask()]);
            }
            for (std::size_t i = 0; i < n; ++i) {
                starts[i] = first_tag_match(hashes[i]);
                if (slots_[starts[i]].id >= 0) {
                    prefetch(slots_[starts[i]].id);
                }
            }
            for (std::size_t i = 0; i < n; ++i) {
                out[b + i] =
                    Id{probe(names[b + i], hashes[i], starts[i], name_of)};
            }
        }
    }

private:
    /// Smallest power of two ≥ 2n, at least 16: load stays ≤ 1/2.
    static std::size_t capacity_for(std::size_t n) {
        std::size_t cap = 16;
        while (cap < 2 * n) {
            cap *= 2;
        }
        return cap;
    }

    std::size_t mask() const { return slots_.size() - 1; }

    /// Walks the probe sequence from `pos` to `name`'s id, or to the free
    /// slot that ends the sequence (-1).
    template <typename NameOf>
    std::int32_t probe(std::string_view name, std::uint32_t h,
                       std::size_t pos, const NameOf& name_of) const {
        for (;; pos = (pos + 1) & mask()) {
            const Slot& s = slots_[pos];
            if (s.id < 0 || (s.hash == h && name_of(s.id) == name)) {
                return s.id;
            }
        }
    }

    /// The first slot from h's home whose hash equals h, or the free slot
    /// that ends the sequence. Reads no names; the slots it skips cannot
    /// hold h's name, so probe() may start from here.
    std::size_t first_tag_match(std::uint32_t h) const {
        std::size_t pos = h & mask();
        while (slots_[pos].id >= 0 && slots_[pos].hash != h) {
            pos = (pos + 1) & mask();
        }
        return pos;
    }

    std::size_t free_slot(std::uint32_t h) const {
        std::size_t pos = h & mask();
        while (slots_[pos].id >= 0) {
            pos = (pos + 1) & mask();
        }
        return pos;
    }

    void rehash(std::size_t cap) {
        std::vector<Slot> old(cap);
        old.swap(slots_);
        for (const Slot& s : old) {
            if (s.id >= 0) {
                slots_[free_slot(s.hash)] = s;
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

}  // namespace mrlg
